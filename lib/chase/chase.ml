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

   Whatever the strategy, a trigger fires through [commit_env], the
   only place the chase mutates an instance (Maintain's repair fires
   through it too, via [commit]), and [run], [resume] and [certain]
   share one round driver.  Each rule is prepared once per run into a
   [trigger]: rounds, witness checks, demand keys and commits then work
   on body register environments, never on variable names (DESIGN.md
   section 7a). *)

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

(* ------------------------------------------------------------------ *)
(* Triggers                                                            *)
(* ------------------------------------------------------------------ *)

(* A rule's trigger path works on the body plan's register environment
   (Eval.iter_env), never on variable names: everything a firing needs
   is resolved to body registers once, when the rule is prepared. *)

(* A head argument, resolved against the body registers. *)
type hslot =
  | H_body of int (* a frontier variable's body register *)
  | H_cst of string
  | H_exist of int (* an existential variable, numbered by first occurrence *)

(* The dedup key of an existential trigger: an interned shape and the
   element ids that fill it. *)
type key = { k_shape : int; k_ids : int array }

module Key_tbl = Hashtbl.Make (struct
  type t = key

  let rec ids_equal a1 a2 i =
    i >= Array.length a1 || (a1.(i) = a2.(i) && ids_equal a1 a2 (i + 1))

  let equal k1 k2 =
    k1.k_shape = k2.k_shape
    && Array.length k1.k_ids = Array.length k2.k_ids
    && ids_equal k1.k_ids k2.k_ids 0

  (* the linear fold puts neighbouring ids a fixed stride apart;
     [Hashtbl.hash] of the result mixes them into the low bits *)
  let hash k =
    let h = ref k.k_shape in
    for i = 0 to Array.length k.k_ids - 1 do
      h := ((!h * 31) + k.k_ids.(i) + 1) land max_int
    done;
    Hashtbl.hash !h
end)

(* Shapes are interned per run: keys are only ever compared within one
   run's demand tables, and the shapes of generated rules (fresh
   existential names) would otherwise pile up for the life of a serving
   process. *)
let intern_shape shapes s =
  match Hashtbl.find_opt shapes s with
  | Some id -> id
  | None ->
      let id = Hashtbl.length shapes in
      Hashtbl.add shapes s id;
      id

type trigger = {
  t_rule : Rule.t;
  t_datalog : bool;
  t_body : Eval.prepared;
  t_head : Eval.prepared option;
      (* the witness check's plan: restricted existential rules only *)
  t_fill : (int * int) array; (* (head register, body register): frontier *)
  t_atoms : (Pred.t * hslot array) list; (* the head, instantiated per firing *)
  t_nexist : int;
  t_parent : int; (* body register of the nulls' skeleton parent; -1: none *)
  t_key_shape : int;
  t_key_regs : int array; (* body registers filling the key's shape *)
}

(* The dedup key of a restricted trigger is the demanded head instance:
   the head rendered with its constants, its existential variables by
   name and its frontier slots by element id.  The rendering of
   everything but the ids is the shape; the ids, in rendering order, go
   in [k_ids].  Two triggers (of any rules) demanding the same head
   instance thus create a single witness.  The oblivious key is the
   whole body homomorphism — rule name and every body variable, in
   name order — one witness per homomorphism.  [key] carries the run's
   shape table and variant; without it (a single commit) the trigger has
   neither key nor witness plan. *)
let prepare_trigger ?key rule =
  let datalog = Rule.is_datalog rule in
  let body = Eval.prepare (Rule.body rule) in
  let head =
    match key with
    | Some (_, Restricted) when not datalog ->
        Some (Eval.prepare (Rule.head rule))
    | Some _ | None -> None
  in
  let bplan = Eval.plan body in
  let exist = ref [] in
  let slot = function
    | Term.Cst c -> H_cst c
    | Term.Var x -> (
        match Plan.reg_of_var bplan x with
        | Some r -> H_body r
        | None -> (
            match List.assoc_opt x !exist with
            | Some k -> H_exist k
            | None ->
                let k = List.length !exist in
                exist := (x, k) :: !exist;
                H_exist k))
  in
  let atoms =
    List.map
      (fun a -> (Atom.pred a, Array.of_list (List.map slot (Atom.args a))))
      (Rule.head rule)
  in
  let fill =
    match head with
    | None -> []
    | Some head ->
        let hplan = Eval.plan head in
        List.filter_map
          (fun r ->
            Option.map
              (fun b -> (r, b))
              (Plan.reg_of_var bplan (Plan.var_name hplan r)))
          (List.init (Plan.nvars hplan) Fun.id)
  in
  let body_regs =
    List.concat_map
      (fun (_, slots) ->
        List.filter_map
          (function H_body r -> Some r | H_cst _ | H_exist _ -> None)
          (Array.to_list slots))
      atoms
  in
  let key_shape, key_regs =
    match key with
    | None -> (-1, [])
    | Some (shapes, Restricted) ->
        let render_atom a =
          let render = function
            | Term.Cst c -> "c:" ^ c
            | Term.Var x -> (
                match Plan.reg_of_var bplan x with
                | Some _ -> "e:"
                | None -> "z:" ^ x)
          in
          Pred.name (Atom.pred a) ^ "("
          ^ String.concat "," (List.map render (Atom.args a))
          ^ ")"
        in
        ( intern_shape shapes
            (String.concat "&" (List.map render_atom (Rule.head rule))),
          body_regs )
    | Some (shapes, Oblivious) ->
        let vars =
          List.sort
            (fun (x, _) (y, _) -> String.compare x y)
            (List.init (Plan.nvars bplan) (fun r -> (Plan.var_name bplan r, r)))
        in
        ( intern_shape shapes
            (Rule.name rule ^ "#"
            ^ String.concat "," (List.map (fun (x, _) -> x ^ ":") vars)),
          List.map snd vars )
  in
  {
    t_rule = rule;
    t_datalog = datalog;
    t_body = body;
    t_head = head;
    t_fill = Array.of_list fill;
    t_atoms = atoms;
    t_nexist = List.length !exist;
    t_parent = (match body_regs with r :: _ -> r | [] -> -1);
    t_key_shape = key_shape;
    t_key_regs = Array.of_list key_regs;
  }

let trigger_key tg env =
  {
    k_shape = tg.t_key_shape;
    k_ids = Array.map (fun r -> env.(r)) tg.t_key_regs;
  }

(* Witness check: does the round's visible state satisfy [exists Z. head]
   under the frontier of the body environment [env]?  Under the
   semi-naive strategy [snapshot] is the live instance and the windows
   trim the join to the committed prefix (births < round).  The
   interpreter (the differential oracle) checks through named bindings,
   as it always did. *)
let witness_exists ?eval ~upto ~wsince ~wupto snapshot tg head env =
  match eval with
  | Some Eval.Interp ->
      let hplan = Eval.plan head in
      let init =
        Array.fold_left
          (fun b (h, r) -> Smap.add (Plan.var_name hplan h) env.(r) b)
          Smap.empty tg.t_fill
      in
      Eval.first_env ~init ?upto ~engine:Eval.Interp snapshot head <> None
  | Some Eval.Compiled | None ->
      Eval.satisfiable_filled ~fill:tg.t_fill ~src:env ~wsince ~wupto snapshot
        head

(* The witness check's per-atom windows: the whole committed prefix. *)
let head_windows tg upto =
  let n = max 1 (List.length (Rule.head tg.t_rule)) in
  (Array.make n 0, Array.make n (Option.value upto ~default:max_int))

(* [true] the first time [key] is demanded in [table]. *)
let first_demand table key =
  (not (Key_tbl.mem table key)) && (Key_tbl.replace table key (); true)

type record =
  round:int -> rule:Rule.t -> binding:Eval.binding -> Fact.t -> unit

type tally = { mutable added : int; mutable nulls : int }

(* The commit: fire [tg]'s trigger under the body environment [env] at
   birth [round].  Existential variables get one shared set of fresh
   nulls, parented at the first frontier element of the head; every head
   fact actually added is counted, recorded, then charged.  [binding]
   names [env] for the recorder and is only called when there is one. *)
let commit_env ?record ~budget ~round tally inst tg env ~binding =
  let rule = tg.t_rule in
  let record =
    Option.map
      (fun fn ->
        let binding = binding () in
        fun f -> fn ~round ~rule ~binding f)
      record
  in
  let nulls = Array.make tg.t_nexist (-1) in
  let arg = function
    | H_body r -> env.(r)
    | H_cst c -> Instance.const inst c
    | H_exist k ->
        if nulls.(k) >= 0 then nulls.(k)
        else begin
          Budget.charge budget Budget.Elements 1;
          let id =
            Instance.fresh_null inst ~birth:round ~rule:(Rule.name rule)
              ~parent:(if tg.t_parent < 0 then None else Some env.(tg.t_parent))
          in
          tally.nulls <- tally.nulls + 1;
          nulls.(k) <- id;
          id
        end
  in
  List.iter
    (fun (p, slots) ->
      let f = Fact.make p (Array.map arg slots) in
      if Instance.add_fact ~birth:round inst f then begin
        tally.added <- tally.added + 1;
        Option.iter (fun fn -> fn f) record;
        Budget.charge budget Budget.Facts 1
      end)
    tg.t_atoms

(* The commit behind a named body binding (Maintain's repair). *)
let commit ?record ~budget ~round tally inst rule binding =
  let tg = prepare_trigger rule in
  let bplan = Eval.plan tg.t_body in
  let env =
    Array.init
      (max 1 (Plan.nvars bplan))
      (fun r ->
        if r >= Plan.nvars bplan then -1
        else
          Option.value ~default:(-1)
            (Smap.find_opt (Plan.var_name bplan r) binding))
  in
  commit_env ?record ~budget ~round tally inst tg env
    ~binding:(fun () -> binding)

(* One simultaneous chase round on [inst], returning its tally.  Body
   evaluation and witness checks read the state at the start of the
   round: a full copy under the Naive strategy, the committed prefix of
   [inst] itself (births < round_no, in place) under Seminaive.  Under
   Seminaive only bindings with >= 1 body atom in the previous round's
   delta are enumerated — every other binding already fired (or was
   witness-blocked) in an earlier round.  Fresh elements and added facts
   are charged to [budget]; a trip mid-round leaves a partial round
   behind (best effort), and the tally reaches the registry anyway.
   [fired] persists dedup keys across rounds (needed for the oblivious
   variant, where a trigger must fire exactly once ever); without it the
   table is per-round, which is enough for the restricted variant
   because the created witness blocks the trigger in later rounds. *)
let round ~strategy ?eval ?fired ?record ~budget ~round_no triggers inst =
  Obs.Metrics.incr m_rounds;
  let demanded = match fired with Some t -> t | None -> Key_tbl.create 64 in
  let snapshot, upto, since =
    match strategy with
    | Naive -> (Instance.copy inst, None, 0)
    | Seminaive -> (inst, Some round_no, round_no - 1)
  in
  let tally = { added = 0; nulls = 0 } in
  Fun.protect
    ~finally:(fun () ->
      Obs.Metrics.add m_facts tally.added;
      Obs.Metrics.add m_nulls tally.nulls)
    (fun () ->
      List.iter
        (fun tg ->
          let wsince, wupto = head_windows tg upto in
          let fires env =
            tg.t_datalog
            || (match tg.t_head with
               | None -> true (* oblivious: no witness check *)
               | Some head ->
                   not
                     (witness_exists ?eval ~upto ~wsince ~wupto snapshot tg
                        head env))
               && first_demand demanded (trigger_key tg env)
          in
          Eval.iter_env ?engine:eval ~since ?upto snapshot tg.t_body
            (fun env ->
              if fires env then
                commit_env ?record ~budget ~round:round_no tally inst tg env
                  ~binding:(fun () -> Eval.binding_of_prepared tg.t_body env)))
        triggers;
      tally)

(* The rules a run fires, prepared once per run, their key shapes
   interned in one table. *)
let prepare_triggers ?(datalog_only = false) ~variant theory =
  let shapes = Hashtbl.create 16 in
  List.filter_map
    (fun rule ->
      if datalog_only && not (Rule.is_datalog rule) then None
      else Some (prepare_trigger ~key:(shapes, variant) rule))
    (Theory.rules theory)

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

let strategy_tag = function
  | Naive -> "naive"
  | Seminaive -> "seminaive"

let variant_tag = function Restricted -> "restricted" | Oblivious -> "oblivious"

let run ?(variant = Restricted) ?(strategy = Seminaive) ?eval
    ?(datalog_only = false) ?watch ?record ?budget ?max_rounds ?max_elements
    theory base =
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
  let fired = if variant = Oblivious then Some (Key_tbl.create 64) else None in
  let triggers = prepare_triggers ~datalog_only ~variant theory in
  let watch_round = ref None in
  let watch_hit i =
    match watch with
    | None -> false
    | Some p ->
        !watch_round = None
        && Instance.card_with_pred inst p > 0
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
          round ~strategy ?eval ?fired ?record ~budget ~round_no triggers inst)
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

   Restricted variant only: the oblivious chase's fired-trigger table
   does not survive across runs. *)
let resume ?(strategy = Seminaive) ?eval ?record ?budget ?max_rounds
    ?max_elements ~from_round theory inst =
  let budget = effective_budget ?budget ?max_rounds ?max_elements () in
  Obs.Metrics.incr m_runs;
  Obs.Trace.span "chase.resume" @@ fun () ->
  if Obs.Trace.enabled () then begin
    Obs.Trace.attr "strategy" (Obs.Str (strategy_tag strategy));
    Obs.Trace.attr "from_round" (Obs.Int from_round)
  end;
  let triggers = prepare_triggers ~variant:Restricted theory in
  let staged =
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
        round ~strategy ?eval ?record ~budget ~round_no triggers inst)
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

let certain ?(strategy = Seminaive) ?eval ?budget ?max_rounds ?max_elements
    theory base q =
  let budget = effective_budget ?budget ?max_rounds ?max_elements () in
  Obs.Trace.span "chase.certain" @@ fun () ->
  let inst = Instance.copy base in
  Instance.reset_fact_births inst;
  let triggers = prepare_triggers ~variant:Restricted theory in
  if Eval.holds ?engine:eval inst q then Entailed 0
  else
    match
      drive ~budget ~from:0 ~frontier:(Instance.num_facts inst)
        (fun round_no ->
          round ~strategy ?eval ~budget ~round_no triggers inst)
        (fun round_no added ->
          if Eval.holds ?engine:eval inst q then Some (Entailed round_no)
          else if added = 0 then Some Not_entailed
          else None)
    with
    | Ok c, _, _ -> c
    | Error r, last, _ -> Unknown (r, last)
