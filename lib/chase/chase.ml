(* The chase (Section 1.1 of the paper).

   We implement the *restricted* (non-oblivious) chase in rounds:
   Chase^{i+1}(D, T) = Chase1(Chase^i(D, T), T), where Chase1 evaluates
   every rule body on the state at the start of the round and

     - for a datalog rule, adds the instantiated head atoms;
     - for an existential rule, checks on that state whether a witness
       already exists and, if not, creates fresh labelled nulls for the
       existential variables — at most once per demanded head instance, so
       that Lemma 3 (at most one TGP successor per element and predicate)
       holds of the skeleton.

   An oblivious variant (one witness per rule-and-body-homomorphism, no
   witness check) is provided for comparison benchmarks.

   Two evaluation strategies produce that round semantics:

     - Naive: copy the instance into a snapshot and re-join every rule
       body against it — O(full join) per round, the reference
       implementation.
     - Seminaive (default): no copy.  Facts are stamped with their birth
       round, round r only enumerates bindings with at least one body
       atom in round r-1's delta (Eval.iter_solutions_delta), and body
       evaluation plus witness checks read the committed prefix (births
       < r) through birth-windowed indexes, so facts added during round r
       are invisible to it — exactly the snapshot semantics, without the
       snapshot.

   The two agree round by round: a datalog fact is new in round r iff
   some body binding first matched against round r-1's delta, and a
   restricted trigger fires at most once ever — at the round its body
   first matches — because witnesses only accumulate (once blocked,
   always blocked).  test/test_differential.ml holds the strategies to
   this equivalence across the zoo and fuzzed theories.

   All truncation is governed by a Budget.t: the engine charges the
   governor per round, per fresh element and per added fact, catches
   Budget.Exhausted at its boundary and returns the partial prefix
   together with the tripped resource (anytime semantics).  The legacy
   [max_rounds]/[max_elements] knobs are local ceilings layered on top of
   the caller's governor.

   Whatever the strategy, a trigger fires through [commit], the only
   place the chase mutates an instance (Maintain's repair fires through
   it too), and [run], [resume] and [certain] share one round driver. *)

open Bddfc_budget
open Bddfc_logic
open Bddfc_structure
open Bddfc_hom

type variant =
  | Restricted
  | Oblivious

type strategy =
  | Naive
  | Seminaive
  | Parallel of int

(* The default strategy honours BDDFC_TEST_DOMAINS (n >= 2 -> Parallel n)
   so the CI multi-domain lane can push the whole tier-1 suite through
   the parallel engine without touching call sites; read once, lazily. *)
let default_strategy =
  let v =
    lazy
      (match Sys.getenv_opt "BDDFC_TEST_DOMAINS" with
      | Some s -> (
          match int_of_string_opt (String.trim s) with
          | Some n when n >= 2 -> Parallel n
          | _ -> Seminaive)
      | None -> Seminaive)
  in
  fun () -> Lazy.force v

type outcome =
  | Fixpoint (* no trigger fired: the result is a model *)
  | Watched (* the watched predicate appeared; stopped early *)
  | Exhausted of Budget.resource (* a budget tripped; the result is a prefix *)

type result = {
  instance : Instance.t;
  rounds : int;
  outcome : outcome;
  base_facts : Fact.t list; (* the facts of the input instance D *)
  new_facts_per_round : int list; (* newest round first *)
  watch_round : int option; (* first round the watched predicate appeared *)
}

let is_model result = result.outcome = Fixpoint

let pp_outcome ppf = function
  | Fixpoint -> Fmt.string ppf "fixpoint (the result is a model)"
  | Watched -> Fmt.string ppf "watched predicate derived"
  | Exhausted r -> Fmt.pf ppf "%s budget exhausted" (Budget.resource_name r)

let src = Logs.Src.create "bddfc.chase" ~doc:"Chase engine"

module Log = (val Logs.src_log src : Logs.LOG)

(* Registry handles, resolved once at module initialisation: the hot
   paths below touch them as plain record mutations.  Counters are
   always on; per-round [chase.round] events (and the attribute lists
   they allocate) are built only when a trace sink is installed, so the
   disabled path costs one branch. *)
module Obs = Bddfc_obs.Obs

let m_runs = Obs.Metrics.counter "chase.runs"
let m_rounds = Obs.Metrics.counter "chase.rounds"
let m_facts = Obs.Metrics.counter "chase.facts_added"
let m_nulls = Obs.Metrics.counter "chase.nulls_invented"
let t_run = Obs.Metrics.timer "chase.run"

let outcome_tag = function
  | Fixpoint -> "fixpoint"
  | Watched -> "watched"
  | Exhausted r -> "exhausted:" ^ Budget.resource_name r

(* Instantiate an atom under a variable binding, creating terms for
   existential variables via [fresh].  Returns the fact. *)
let instantiate inst binding fresh atom =
  let id_of = function
    | Term.Cst c -> Instance.const inst c
    | Term.Var x -> (
        match Smap.find_opt x binding with
        | Some id -> id
        | None -> fresh x)
  in
  Fact.make (Atom.pred atom) (Array.of_list (List.map id_of (Atom.args atom)))

(* The frontier part of a body binding: what a witness must agree on. *)
let frontier_binding frontier binding =
  Smap.filter (fun x _ -> Rule.SS.mem x frontier) binding

(* Witness check: does the round's visible state satisfy
   [exists Z. head] under the frontier part of [binding]?  Under the
   semi-naive strategy [snapshot] is the live instance and [upto] trims
   the join to the committed prefix (births < round). *)
let witness_exists ?upto ?eval snapshot rule binding =
  Eval.satisfiable
    ~init:(frontier_binding (Rule.frontier rule) binding)
    ?upto ?engine:eval snapshot (Rule.head rule)

(* Key identifying the demanded head instance: predicate names and frontier
   arguments, with existential slots anonymized.  Two triggers demanding
   the same head instance create a single witness. *)
let demand_key rule binding =
  let render_atom a =
    let render = function
      | Term.Cst c -> "c:" ^ c
      | Term.Var x -> (
          match Smap.find_opt x binding with
          | Some id -> "e:" ^ string_of_int id
          | None -> "z:" ^ x)
    in
    Pred.name (Atom.pred a) ^ "("
    ^ String.concat "," (List.map render (Atom.args a))
    ^ ")"
  in
  String.concat "&" (List.map render_atom (Rule.head rule))

(* The dedup key of an existential trigger: the demanded head instance
   (restricted), or the whole body homomorphism (oblivious: one witness
   per homomorphism). *)
let trigger_key variant rule binding =
  match variant with
  | Restricted -> demand_key rule binding
  | Oblivious ->
      Rule.name rule ^ "#"
      ^ String.concat ","
          (List.map
             (fun (x, id) -> x ^ ":" ^ string_of_int id)
             (Smap.bindings binding))

(* [true] the first time [key] is demanded in [table]. *)
let first_demand table key =
  (not (Hashtbl.mem table key)) && (Hashtbl.replace table key (); true)

type record =
  round:int -> rule:Rule.t -> binding:Eval.binding -> Fact.t -> unit

type tally = { mutable added : int; mutable nulls : int }

(* The skeleton-forest parent of a trigger's nulls: the first frontier
   element appearing in a head atom. *)
let null_parent rule binding =
  List.find_map
    (fun a ->
      List.find_map
        (function Term.Var x -> Smap.find_opt x binding | Term.Cst _ -> None)
        (Atom.args a))
    (Rule.head rule)

(* The commit: fire [rule]'s trigger under the body [binding] at birth
   [round].  Existential variables get one shared set of fresh nulls;
   every head fact actually added is counted, recorded, then charged.
   [guard] runs before each mutation (phase C's discipline check). *)
let guarded_commit ~guard ?record ~budget ~round tally inst rule binding =
  let nulls = ref [] in
  let fresh x =
    match List.assoc_opt x !nulls with
    | Some id -> id
    | None ->
        guard ();
        Budget.charge budget Budget.Elements 1;
        let id =
          Instance.fresh_null inst ~birth:round ~rule:(Rule.name rule)
            ~parent:(null_parent rule binding)
        in
        tally.nulls <- tally.nulls + 1;
        nulls := (x, id) :: !nulls;
        id
  in
  List.iter
    (fun atom ->
      let f = instantiate inst binding fresh atom in
      guard ();
      if Instance.add_fact ~birth:round inst f then begin
        tally.added <- tally.added + 1;
        Option.iter (fun fn -> fn ~round ~rule ~binding f) record;
        Budget.charge budget Budget.Facts 1
      end)
    (Rule.head rule)

let commit = guarded_commit ~guard:ignore

(* ------------------------------------------------------------------ *)
(* The parallel round                                                  *)
(* ------------------------------------------------------------------ *)

(* The [Parallel n] round is the semi-naive round, fork-joined:

     phase A (coordinator)  build each rule's passes with their root
                            access paths and materialized root candidates
                            (Eval.passes — the deterministic first step
                            of the sequential enumeration), and chunk the
                            candidate ranges into jobs;
     phase B (pool)         evaluate jobs read-only against the committed
                            prefix: enumerate bindings (Eval.pass_run),
                            run witness checks and compute demand keys,
                            collect the triggers that may fire into
                            per-job slots (counters divert to per-domain
                            shards, merged at the barrier);
     phase C (coordinator)  replay the candidates in job order — which is
                            (rule, pass, root candidate, sub-walk) order,
                            i.e. exactly the sequential enumeration
                            order — through the demand dedup and [commit].

   Everything order-sensitive (fact insertion, demand dedup, null ids,
   fuel-trap charge points) happens in phase C on one domain in the
   sequential order, so the result instance is bit-identical to the
   Seminaive strategy's for every domain count and any scheduling.
   Workers never charge the governor (they poll the non-ticking
   Budget.deadline_expired and bail early); the canonical trip happens at
   a coordinator charge point.  Phase B may only *read* the instance:
   mid-round commits do not exist yet, and the birth windows already
   guarantee the sequential round's evaluation never sees its own round's
   writes — the invariant that makes this fork-join sound (DESIGN.md
   section 11). *)

type pjob = {
  pj_rule : Rule.t;
  pj_datalog : bool;
  pj_frontier : Rule.SS.t;
  pj_head_prep : Eval.prepared option; (* restricted existential only *)
  pj_pass : Eval.pass;
  pj_lo : int;
  pj_hi : int; (* root-candidate range [lo, hi) *)
  mutable pj_out : (Eval.binding * string option) list;
      (* triggers that may fire, in enumeration order; existential ones
         carry their demand key *)
}

let chunks_per_domain = 4

let parallel_round ~variant ~domains ~datalog_only ~demanded ~since ?record
    ~budget ~round_no tally theory inst =
  let upto = round_no in
  let pool = Shard.shared_pool domains in
  (* phase A *)
  let jobs = ref [] in
  List.iter
    (fun rule ->
      if (not datalog_only) || Rule.is_datalog rule then begin
        let body_prep = Eval.prepare (Rule.body rule) in
        let is_datalog = Rule.is_datalog rule in
        let head_prep =
          if is_datalog || variant = Oblivious then None
          else Some (Eval.prepare (Rule.head rule))
        in
        let frontier = Rule.frontier rule in
        List.iter
          (fun pass ->
            let ncands = Eval.pass_candidates pass in
            if ncands > 0 then begin
              let nchunks = min ncands (domains * chunks_per_domain) in
              let base = ncands / nchunks and rem = ncands mod nchunks in
              let lo = ref 0 in
              for c = 0 to nchunks - 1 do
                let len = base + if c < rem then 1 else 0 in
                jobs :=
                  {
                    pj_rule = rule;
                    pj_datalog = is_datalog;
                    pj_frontier = frontier;
                    pj_head_prep = head_prep;
                    pj_pass = pass;
                    pj_lo = !lo;
                    pj_hi = !lo + len;
                    pj_out = [];
                  }
                  :: !jobs;
                lo := !lo + len
              done
            end)
          (Eval.passes ~since ~upto inst body_prep)
      end)
    (Theory.rules theory);
  let jobs = Array.of_list (List.rev !jobs) in
  Shard.Check.phase_a ~facts:(Instance.num_facts inst)
    ~elements:(Instance.num_elements inst);
  (* phase B *)
  let work j =
    let job = jobs.(j) in
    Shard.Check.observe ~facts:(Instance.num_facts inst)
      ~elements:(Instance.num_elements inst);
    if not (Budget.deadline_expired budget) then begin
      let out = ref [] in
      let yield =
        if job.pj_datalog then fun binding -> out := (binding, None) :: !out
        else fun binding ->
          let fire =
            match job.pj_head_prep with
            | None -> true
            | Some head_prep ->
                not
                  (Eval.satisfiable_prepared
                     ~init:(frontier_binding job.pj_frontier binding)
                     ~upto inst head_prep)
          in
          if fire then
            out :=
              (binding, Some (trigger_key variant job.pj_rule binding))
              :: !out
      in
      let c = ref job.pj_lo in
      while !c < job.pj_hi && not (Budget.deadline_expired budget) do
        Eval.pass_run inst job.pj_pass ~cand:!c yield;
        incr c
      done;
      job.pj_out <- List.rev !out
    end
  in
  Obs.Metrics.Shard.start ();
  Fun.protect
    ~finally:(fun () -> Obs.Metrics.Shard.stop_and_merge ())
    (fun () -> Shard.run pool ~njobs:(Array.length jobs) work);
  (* Workers bail (truncating their pj_out) when the deadline passes; a
     truncated round must surface as exhaustion, never as a bogus
     zero-added fixpoint, so the canonical raising check sits at the
     join — guarded by the pure probe, because check_deadline also
     ticks the fuel trap and an unconditional call would shift trap
     points relative to the sequential engine. *)
  if Budget.deadline_expired budget then Budget.check_deadline budget;
  (* phase C *)
  Array.iter
    (fun job ->
      List.iter
        (fun (binding, key) ->
          if Option.fold key ~none:true ~some:(first_demand demanded) then
            guarded_commit ~guard:Shard.Check.mutating ?record ~budget
              ~round:round_no tally inst job.pj_rule binding)
        job.pj_out)
    jobs

(* One simultaneous chase round on [inst].  Body evaluation and witness
   checks read the state at the start of the round: a full copy under the
   Naive strategy, the committed prefix of [inst] itself (births <
   round_no, in place) under Seminaive and Parallel.  Fresh elements and
   added facts are charged to [budget]; a trip mid-round leaves a partial
   round behind (best effort). *)
let sequential_round ~variant ~strategy ?eval ~datalog_only ~demanded ~since
    ?record ~budget ~round_no tally theory inst =
  let snapshot, upto =
    match strategy with
    | Naive -> (Instance.copy inst, None)
    | Seminaive | Parallel _ -> (inst, Some round_no)
  in
  (* Under Seminaive only bindings with >= 1 body atom in the previous
     round's delta are enumerated — every other binding already fired (or
     was witness-blocked) in an earlier round. *)
  let iter_bindings rule yield =
    match strategy with
    | Naive -> Eval.iter_solutions ?engine:eval snapshot (Rule.body rule) yield
    | Seminaive | Parallel _ ->
        Eval.iter_solutions_delta ~since ~upto:round_no ?engine:eval inst
          (Rule.body rule) yield
  in
  List.iter
    (fun rule ->
      let datalog = Rule.is_datalog rule in
      let fires binding =
        datalog
        || (variant = Oblivious
           || not (witness_exists ?upto ?eval snapshot rule binding))
           && first_demand demanded (trigger_key variant rule binding)
      in
      if (not datalog_only) || datalog then
        iter_bindings rule (fun binding ->
            if fires binding then
              commit ?record ~budget ~round:round_no tally inst rule binding))
    (Theory.rules theory)

(* Dispatch one round and return its tally.  [Parallel n] with [n <= 1]
   is literally the sequential Seminaive code path (one domain, no pool,
   no sharded counters) — the parallel machinery only engages at
   [n >= 2], always with the compiled engine ([?eval] is a
   sequential-only knob).  [fired] persists dedup keys across rounds
   (needed for the oblivious variant, where a trigger must fire exactly
   once ever); without it the table is per-round, which is enough for
   the restricted variant because the created witness blocks the trigger
   in later rounds.  The tally reaches the registry even when a budget
   trips mid-round. *)
let round ?(variant = Restricted) ~strategy ?eval ?(datalog_only = false)
    ?fired ?since ?record ~budget ~round_no theory inst =
  Obs.Metrics.incr m_rounds;
  let since = Option.value since ~default:(round_no - 1) in
  let demanded = match fired with Some t -> t | None -> Hashtbl.create 64 in
  let tally = { added = 0; nulls = 0 } in
  Fun.protect
    ~finally:(fun () ->
      Obs.Metrics.add m_facts tally.added;
      Obs.Metrics.add m_nulls tally.nulls)
    (fun () ->
      (match strategy with
      | Parallel n when n >= 2 ->
          parallel_round ~variant ~domains:n ~datalog_only ~demanded ~since
            ?record ~budget ~round_no tally theory inst
      | Naive | Seminaive | Parallel _ ->
          sequential_round ~variant ~strategy ?eval ~datalog_only ~demanded
            ~since ?record ~budget ~round_no tally theory inst);
      tally)

(* The round driver shared by [run], [resume] and [certain]: starting
   after round [from], each iteration checks the deadline, charges one
   round, runs [step round_no], emits the round's trace event and asks
   [stop round_no added] whether to end there.  Returns the stop value
   (or the tripped resource), the last round that completed and the
   per-round added counts, newest first.  [frontier] is the size of the
   first round's input delta (later rounds: the previous round's
   additions). *)
let drive ~budget ~from ~frontier step stop =
  let last = ref from and per_round = ref [] in
  let rec go frontier =
    let round_no = !last + 1 in
    Budget.check_deadline budget;
    Budget.charge budget Budget.Rounds 1;
    let probes0 = Eval.probe_count () in
    let tally = step round_no in
    last := round_no;
    per_round := tally.added :: !per_round;
    Log.debug (fun m -> m "round %d: %d new facts" round_no tally.added);
    if Obs.Trace.enabled () then
      Obs.Trace.event "chase.round"
        (("round", Obs.Int round_no)
        :: ("frontier", Obs.Int frontier)
        :: ("facts_added", Obs.Int tally.added)
        :: ("nulls_invented", Obs.Int tally.nulls)
        :: ("join_probes", Obs.Int (Eval.probe_count () - probes0))
        ::
        (match Budget.remaining_fuel budget Budget.Rounds with
        | Some n -> [ ("fuel_rounds", Obs.Int n) ]
        | None -> []));
    match stop round_no tally.added with
    | Some v -> v
    | None -> go tally.added
  in
  let outcome = try Ok (go frontier) with Budget.Exhausted r -> Error r in
  (outcome, !last, !per_round)

(* The number of productive rounds: a fixpoint's final empty round is
   not counted. *)
let productive outcome last = if outcome = Fixpoint then last - 1 else last

let default_rounds = 64
let default_elements = 100_000

(* Combine a caller-supplied governor with the per-call legacy knobs.
   With a governor, the knobs are local ceilings on top of its shared
   pools; without one, the knobs (or their historical defaults) become a
   fresh self-contained budget. *)
let effective_budget ?budget ?max_rounds ?max_elements () =
  match budget with
  | Some b -> Budget.cap ?rounds:max_rounds ?elements:max_elements b
  | None ->
      Budget.v
        ~rounds:(Option.value max_rounds ~default:default_rounds)
        ~elements:(Option.value max_elements ~default:default_elements)
        ()

let resolve_strategy = function Some s -> s | None -> default_strategy ()

let strategy_tag = function
  | Naive -> "naive"
  | Seminaive -> "seminaive"
  | Parallel n -> "parallel:" ^ string_of_int n
let variant_tag = function Restricted -> "restricted" | Oblivious -> "oblivious"

let run ?(variant = Restricted) ?strategy ?eval ?(datalog_only = false)
    ?watch ?record ?budget ?max_rounds ?max_elements theory base =
  let strategy = resolve_strategy strategy in
  let budget = effective_budget ?budget ?max_rounds ?max_elements () in
  Obs.Metrics.incr m_runs;
  Obs.Metrics.time t_run @@ fun () ->
  Obs.Trace.span "chase.run" @@ fun () ->
  if Obs.Trace.enabled () then begin
    Obs.Trace.attr "strategy" (Obs.Str (strategy_tag strategy));
    Obs.Trace.attr "variant" (Obs.Str (variant_tag variant));
    Obs.Trace.attr "eval"
      (Obs.Str (Eval.engine_tag (Option.value eval ~default:Eval.Compiled)))
  end;
  let inst = Instance.copy base in
  (* the working copy starts a fresh round numbering: stale birth stamps
     (e.g. when re-chasing a previously chased instance) would corrupt
     the delta windows *)
  Instance.reset_fact_births inst;
  let base_facts = Instance.facts base in
  let fired = if variant = Oblivious then Some (Hashtbl.create 64) else None in
  let watch_round = ref None in
  let watch_hit i =
    match watch with
    | None -> false
    | Some p ->
        !watch_round = None
        && Instance.facts_with_pred inst p <> []
        && begin
             watch_round := Some i;
             true
           end
  in
  let outcome, last, per_round =
    if watch_hit 0 then (Ok Watched, 0, [])
    else
      drive ~budget ~from:0 ~frontier:(List.length base_facts)
        (fun round_no ->
          round ~variant ~strategy ?eval ~datalog_only ?fired ?record ~budget
            ~round_no theory inst)
        (fun round_no added ->
          if watch_hit round_no then Some Watched
          else if added = 0 then Some Fixpoint
          else None)
  in
  let outcome = match outcome with Ok o -> o | Error r -> Exhausted r in
  let rounds = productive outcome last in
  if Obs.Trace.enabled () then begin
    Obs.Trace.attr "rounds" (Obs.Int rounds);
    Obs.Trace.attr "outcome" (Obs.Str (outcome_tag outcome))
  end;
  {
    instance = inst;
    rounds;
    outcome;
    base_facts;
    new_facts_per_round = per_round;
    watch_round = !watch_round;
  }

(* Resume a chase *in place* on an instance whose committed prefix is
   already saturated up to [from_round] — the engine behind incremental
   maintenance (Maintain).  No copy, no birth reset: the caller has
   staged its update delta at birth [from_round], and rounds are numbered
   from [from_round + 1] so the existing stamps keep driving the
   semi-naive windows.

   With [full_first] the first resumed round joins the whole committed
   prefix ([since = 0]) instead of the last delta: after deletions, a
   violated trigger can have an all-old body (the deletion removed its
   witness, not a body fact), which no delta window would ever re-visit.
   [rule_filter] restricts that one full-join round to the rules that can
   actually be violated — the caller must guarantee every rule it filters
   out is still satisfied (Maintain passes the predicate-level cone
   filter; DESIGN.md section 14).  Subsequent rounds always run the full
   theory semi-naively, so cascades re-enter the normal delta discipline.

   Restricted variant only: the oblivious chase's fired-trigger table
   does not survive across runs. *)
let resume ?strategy ?eval ?record ?budget ?max_rounds ?max_elements
    ?(full_first = false) ?(rule_filter = fun _ -> true) ~from_round theory
    inst =
  let strategy = resolve_strategy strategy in
  let budget = effective_budget ?budget ?max_rounds ?max_elements () in
  Obs.Metrics.incr m_runs;
  Obs.Trace.span "chase.resume" @@ fun () ->
  if Obs.Trace.enabled () then begin
    Obs.Trace.attr "strategy" (Obs.Str (strategy_tag strategy));
    Obs.Trace.attr "from_round" (Obs.Int from_round)
  end;
  let first_theory =
    if full_first then
      Theory.make (List.filter rule_filter (Theory.rules theory))
    else theory
  in
  let staged =
    if full_first then Instance.num_facts inst
    else
      Pred.Set.fold
        (fun p n ->
          n
          + Instance.card_with_pred_window inst p ~since:from_round
              ~upto:(from_round + 1))
        (Instance.preds inst) 0
  in
  let outcome, last, per_round =
    drive ~budget ~from:from_round ~frontier:staged
      (fun round_no ->
        let first = full_first && round_no = from_round + 1 in
        round ~strategy ?eval
          ?since:(if first then Some 0 else None)
          ?record ~budget ~round_no
          (if first then first_theory else theory)
          inst)
      (fun _ added -> if added = 0 then Some Fixpoint else None)
  in
  let outcome = match outcome with Ok o -> o | Error r -> Exhausted r in
  {
    instance = inst;
    rounds = productive outcome last;
    outcome;
    base_facts = [];
    new_facts_per_round = per_round;
    watch_round = None;
  }

(* Chase^k(D, T): exactly [k] rounds (or fewer if a fixpoint hits).
   With a governor, its element pool governs (historically this forced a
   hardcoded 1M-element local ceiling on top of the caller's budget; now
   the ceiling exists only as the no-governor default, like the other
   entry points).  Element fuel always applies — never unbounded. *)
let run_depth ?(variant = Restricted) ?strategy ?eval ?budget ~depth theory
    base =
  Obs.Trace.span "chase.run_depth" @@ fun () ->
  if Obs.Trace.enabled () then Obs.Trace.attr "depth" (Obs.Int depth);
  match budget with
  | Some _ ->
      run ~variant ?strategy ?eval ?budget ~max_rounds:depth theory base
  | None ->
      run ~variant ?strategy ?eval ~max_rounds:depth ~max_elements:1_000_000
        theory base

(* Datalog saturation: chase with the datalog rules only.  On a finite
   instance this always terminates (no new elements are created) unless
   the governor's deadline trips first. *)
let saturate_datalog ?strategy ?eval ?budget ?(max_rounds = 10_000) theory
    base =
  Obs.Trace.span "chase.saturate_datalog" @@ fun () ->
  run ~datalog_only:true ?strategy ?eval ?budget ~max_rounds theory base

(* Certain answering by chase: does Chase(D, T) |= q, and at which depth?
   Checks the query after every round. *)
type certainty =
  | Entailed of int (* least chase depth at which the query held *)
  | Not_entailed (* chase reached a fixpoint without satisfying q *)
  | Unknown of Budget.resource * int
      (* this budget exhausted after that many rounds *)

let certain ?strategy ?eval ?budget ?max_rounds ?max_elements theory base q =
  let strategy = resolve_strategy strategy in
  let budget = effective_budget ?budget ?max_rounds ?max_elements () in
  Obs.Trace.span "chase.certain" @@ fun () ->
  let inst = Instance.copy base in
  Instance.reset_fact_births inst;
  if Eval.holds ?engine:eval inst q then Entailed 0
  else
    match
      drive ~budget ~from:0 ~frontier:(Instance.num_facts inst)
        (fun round_no ->
          round ~strategy ?eval ~budget ~round_no theory inst)
        (fun round_no added ->
          if Eval.holds ?engine:eval inst q then Some (Entailed round_no)
          else if added = 0 then Some Not_entailed
          else None)
    with
    | Ok c, _, _ -> c
    | Error r, last, _ -> Unknown (r, last)
