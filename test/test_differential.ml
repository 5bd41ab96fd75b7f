(* Differential oracle for the chase evaluation strategies: the naive
   (snapshot + full re-join) and semi-naive (delta-driven, in-place
   frontier) paths must be observationally identical — same number of
   rounds, same per-round fact counts, same outcome, homomorphically
   equivalent final instances — on every zoo workload and on a sweep of
   random theories, including under a watched predicate and under
   deterministic mid-run fuel traps.

   Why the oracle is hom-both-ways rather than syntactic equality: the
   two strategies may allocate labelled nulls in a different order within
   a round, so instances agree only up to null renaming.  Equal element
   and fact counts plus homomorphisms in both directions pin the
   instances down to isomorphism for our purposes. *)

open Bddfc_budget
open Bddfc_logic
open Bddfc_structure
open Bddfc_chase
open Bddfc_workload
module H = Bddfc_hom.Hom

let check = Alcotest.check
let tc name f = Alcotest.test_case name `Quick f

let th src = Parser.parse_theory src
let db src = Instance.of_atoms (Parser.parse_atoms src)

let run_both ?variant ?watch ?max_rounds ?max_elements theory base =
  let go strategy =
    Chase.run ?variant ~strategy ?watch ?max_rounds ?max_elements theory base
  in
  (go Chase.Naive, go Chase.Seminaive)

(* The round-by-round agreement every clean (un-trapped) run must show. *)
let check_agree name (a : Chase.result) (b : Chase.result) =
  check Alcotest.int (name ^ ": rounds") a.Chase.rounds b.Chase.rounds;
  check
    Alcotest.(list int)
    (name ^ ": new facts per round")
    a.Chase.new_facts_per_round b.Chase.new_facts_per_round;
  check Alcotest.int (name ^ ": total facts")
    (Instance.num_facts a.Chase.instance)
    (Instance.num_facts b.Chase.instance);
  check Alcotest.int (name ^ ": total elements")
    (Instance.num_elements a.Chase.instance)
    (Instance.num_elements b.Chase.instance);
  check Alcotest.bool (name ^ ": is_model") (Chase.is_model a)
    (Chase.is_model b);
  check
    Alcotest.(option int)
    (name ^ ": watch round")
    a.Chase.watch_round b.Chase.watch_round;
  (* isomorphism up to null renaming: hom both ways on equal counts, or
     the identity when the fact sets coincide (every datalog run) *)
  if not (Instance.equal_facts a.Chase.instance b.Chase.instance) then begin
    check Alcotest.bool
      (name ^ ": hom naive -> seminaive")
      true
      (H.exists a.Chase.instance b.Chase.instance);
    check Alcotest.bool
      (name ^ ": hom seminaive -> naive")
      true
      (H.exists b.Chase.instance a.Chase.instance)
  end

(* ----------------------------------------------------------------- *)
(* Zoo workloads                                                      *)
(* ----------------------------------------------------------------- *)

let test_zoo_agreement () =
  List.iter
    (fun (e : Zoo.entry) ->
      let d = Zoo.database_instance e in
      let a, b =
        run_both ~max_rounds:8 ~max_elements:2_000 e.Zoo.theory d
      in
      check_agree e.Zoo.name a b)
    Zoo.all

let test_zoo_oblivious_agreement () =
  List.iter
    (fun (e : Zoo.entry) ->
      let d = Zoo.database_instance e in
      let a, b =
        run_both ~variant:Chase.Oblivious ~max_rounds:5 ~max_elements:2_000
          e.Zoo.theory d
      in
      check_agree (e.Zoo.name ^ "/oblivious") a b)
    Zoo.all

let test_zoo_saturation_agreement () =
  (* datalog-only saturation must agree too (Naive.search's inner loop) *)
  List.iter
    (fun (e : Zoo.entry) ->
      let d = Zoo.database_instance e in
      let go strategy = Chase.saturate_datalog ~strategy e.Zoo.theory d in
      check_agree (e.Zoo.name ^ "/saturate") (go Chase.Naive)
        (go Chase.Seminaive))
    Zoo.all

(* ----------------------------------------------------------------- *)
(* Random theories: the fuzzing sweep                                 *)
(* ----------------------------------------------------------------- *)

let random_cases = List.init 60 (fun i -> i)

let test_random_agreement () =
  List.iter
    (fun seed ->
      let theory = Gen.random_binary_theory ~rules:4 ~seed () in
      let d = Gen.random_instance ~facts:4 ~seed:(seed + 1000) () in
      let a, b = run_both ~max_rounds:6 ~max_elements:400 theory d in
      check_agree (Printf.sprintf "seed %d" seed) a b)
    random_cases

let test_random_provenance_agreement () =
  (* the recorded chase reaches the same instance either way *)
  List.iter
    (fun seed ->
      let theory = Gen.random_binary_theory ~rules:4 ~seed () in
      let d = Gen.random_instance ~facts:4 ~seed:(seed + 1000) () in
      let go strategy =
        Provenance.run ~strategy ~max_rounds:5 ~max_elements:300 theory d
      in
      let a = go Chase.Naive and b = go Chase.Seminaive in
      check Alcotest.int
        (Printf.sprintf "seed %d: provenance facts" seed)
        (Instance.num_facts a.Provenance.instance)
        (Instance.num_facts b.Provenance.instance);
      check Alcotest.int
        (Printf.sprintf "seed %d: provenance rounds" seed)
        a.Provenance.rounds b.Provenance.rounds)
    (List.init 12 (fun i -> i * 5))

(* ----------------------------------------------------------------- *)
(* Watched predicates                                                 *)
(* ----------------------------------------------------------------- *)

let test_watch_agreement () =
  (* goal appears after a few propagation rounds; both strategies must
     stop at the same watch round *)
  let t =
    th
      {| e(X,Y) -> exists Z. e(Y,Z).
         e(X,Y), e(Y,Z) -> p(X,Z).
         p(X,Y), p(Y,Z) -> goal(X,Z). |}
  in
  let d = db "e(a,b)." in
  let a, b =
    run_both ~watch:(Pred.make "goal" 2) ~max_rounds:20 ~max_elements:200 t d
  in
  check Alcotest.bool "watched" true (a.Chase.outcome = Chase.Watched);
  check_agree "watch" a b;
  (* and on the random sweep, watching a predicate of the signature *)
  List.iter
    (fun seed ->
      let theory = Gen.random_binary_theory ~rules:4 ~seed () in
      let d = Gen.random_instance ~facts:4 ~seed:(seed + 1000) () in
      match Signature.preds (Theory.signature theory) with
      | [] -> ()
      | p :: _ ->
          let a, b =
            run_both ~watch:p ~max_rounds:6 ~max_elements:400 theory d
          in
          check
            Alcotest.(option int)
            (Printf.sprintf "seed %d: watch round" seed)
            a.Chase.watch_round b.Chase.watch_round)
    (List.init 15 (fun i -> i * 3))

(* ----------------------------------------------------------------- *)
(* Fuel traps                                                         *)
(* ----------------------------------------------------------------- *)

let test_round_budget_agreement () =
  (* round-granular budgets stop both strategies at the same prefix, so
     the full agreement oracle applies even to truncated runs *)
  List.iter
    (fun seed ->
      let theory = Gen.random_binary_theory ~rules:4 ~seed () in
      let d = Gen.random_instance ~facts:4 ~seed:(seed + 1000) () in
      List.iter
        (fun rounds ->
          let go strategy =
            Chase.run ~strategy
              ~budget:(Budget.v ~rounds ~elements:400 ())
              theory d
          in
          check_agree
            (Printf.sprintf "seed %d rounds %d" seed rounds)
            (go Chase.Naive) (go Chase.Seminaive))
        [ 1; 2; 3 ])
    (List.init 10 (fun i -> i * 7))

let test_fuel_trap_no_leak () =
  (* a forced exhaustion at every charge point: the semi-naive engine
     must never leak Budget.Exhausted, and every stamped birth must lie
     within the executed rounds *)
  let t =
    th
      {| e(X,Y) -> exists Z. e(Y,Z).
         e(X,Y), e(Y,Z) -> p(X,Z). |}
  in
  let d = db "e(a,b). e(b,c)." in
  List.iter
    (fun after ->
      List.iter
        (fun strategy ->
          let b = Budget.with_fuel_trap ~after (Budget.v ()) in
          match Chase.run ~strategy ~budget:b ~max_rounds:12 t d with
          | exception Budget.Exhausted _ ->
              Alcotest.failf "trap %d leaked Budget.Exhausted" after
          | r ->
              Instance.iter_facts
                (fun f ->
                  let birth = Instance.fact_birth r.Chase.instance f in
                  if birth < 0 || birth > r.Chase.rounds + 1 then
                    Alcotest.failf "trap %d: birth %d outside rounds %d"
                      after birth r.Chase.rounds)
                r.Chase.instance)
        [ Chase.Naive; Chase.Seminaive ])
    [ 1; 2; 3; 5; 8; 13; 21; 34 ]

let test_fuel_trap_prefix_consistent () =
  (* exhaustion mid-delta: the committed prefix (births strictly below
     the last fully executed round) must coincide with an untrapped run
     truncated at that many rounds — every stamped round is complete or
     absent *)
  let t = th "e(X,Y), e(Y,Z) -> e(X,Z)." in
  let d = Gen.chain ~len:12 () in
  List.iter
    (fun after ->
      let b = Budget.with_fuel_trap ~after (Budget.v ()) in
      let trapped = Chase.run ~budget:b ~max_rounds:20 t d in
      let complete = max 0 (trapped.Chase.rounds - 1) in
      if complete > 0 then begin
        let reference = Chase.run ~max_rounds:complete t d in
        let prefix_facts =
          List.filter
            (fun f ->
              Instance.fact_birth trapped.Chase.instance f <= complete)
            (Instance.facts trapped.Chase.instance)
        in
        check Alcotest.int
          (Printf.sprintf "trap %d: committed prefix facts" after)
          (Instance.num_facts reference.Chase.instance)
          (List.length prefix_facts)
      end)
    [ 5; 17; 40; 99; 250 ]

(* ----------------------------------------------------------------- *)
(* Telemetry invariants                                               *)
(* ----------------------------------------------------------------- *)

(* The per-round [chase.round] events and the always-on registry
   counters are two independent views of the same run; here the
   differential oracle is the instance itself.  On a clean (fixpoint or
   watched) run:

     - one event per executed round, numbered 1..rounds in order;
     - the events' facts_added mirror [new_facts_per_round] and sum to
       the final-minus-base fact count;
     - nulls_invented sums to the element delta;
     - per-round join_probes sum to the registry's eval.join_probes
       delta, and the chase.* counters match the result record.

   A budget trip may abandon a partial round that mutated the instance
   and the counters after the last reported event, so exhausted runs
   only get the one-sided bounds. *)

module Obs = Bddfc_obs.Obs

let ev_int name attrs key =
  match List.assoc_opt key attrs with
  | Some (Obs.Int n) -> n
  | _ -> Alcotest.failf "%s: chase.round event lacks int attr %s" name key

let check_telemetry name theory d =
  Obs.Trace.set_sink None;
  let before = Obs.Metrics.snapshot () in
  let c = Obs.Trace.install_collector () in
  let r =
    Fun.protect
      ~finally:(fun () -> Obs.Trace.set_sink None)
      (fun () ->
        Chase.run ~max_rounds:8 ~max_elements:2_000 theory d)
  in
  let after = Obs.Metrics.snapshot () in
  let delta = Obs.Metrics.ints_delta ~before ~after in
  let reg k = Option.value ~default:0 (List.assoc_opt k delta) in
  let events = Obs.Trace.find_events (Obs.Trace.root c) "chase.round" in
  let col key = List.map (fun a -> ev_int name a key) events in
  let sum key = List.fold_left ( + ) 0 (col key) in
  (* [rounds] counts productive rounds; the record (and the event
     stream) also carries the final empty round that detected the
     fixpoint, so the executed count is the record's length. *)
  let executed = List.length r.Chase.new_facts_per_round in
  check Alcotest.int (name ^ ": one event per executed round") executed
    (List.length events);
  check
    Alcotest.(list int)
    (name ^ ": events in round order")
    (List.init executed (fun i -> i + 1))
    (col "round");
  check
    Alcotest.(list int)
    (name ^ ": facts_added mirrors the result record")
    (List.rev r.Chase.new_facts_per_round)
    (col "facts_added");
  let facts_delta =
    Instance.num_facts r.Chase.instance - List.length r.Chase.base_facts
  in
  let elems_delta =
    Instance.num_elements r.Chase.instance - Instance.num_elements d
  in
  match r.Chase.outcome with
  | Chase.Exhausted _ ->
      (* the trapped partial round mutated state after its event was lost *)
      check Alcotest.bool (name ^ ": facts events bounded by instance") true
        (sum "facts_added" <= facts_delta);
      check Alcotest.bool (name ^ ": nulls events bounded by instance") true
        (sum "nulls_invented" <= elems_delta);
      check Alcotest.bool (name ^ ": probe events bounded by registry") true
        (sum "join_probes" <= reg "eval.join_probes")
  | Chase.Fixpoint | Chase.Watched ->
      check Alcotest.int
        (name ^ ": facts_added sums to the instance delta")
        facts_delta (sum "facts_added");
      check Alcotest.int
        (name ^ ": facts_added sums to the registry counter")
        (reg "chase.facts_added")
        (sum "facts_added");
      check Alcotest.int
        (name ^ ": nulls_invented sums to the element delta")
        elems_delta (sum "nulls_invented");
      check Alcotest.int
        (name ^ ": nulls_invented sums to the registry counter")
        (reg "chase.nulls_invented")
        (sum "nulls_invented");
      check Alcotest.int
        (name ^ ": join_probes sum to the registry delta")
        (reg "eval.join_probes")
        (sum "join_probes");
      check Alcotest.int
        (name ^ ": registry rounds counter matches")
        executed (reg "chase.rounds")

let test_obs_zoo_invariants () =
  List.iter
    (fun (e : Zoo.entry) ->
      check_telemetry e.Zoo.name e.Zoo.theory (Zoo.database_instance e))
    Zoo.all

let test_obs_random_invariants () =
  List.iter
    (fun seed ->
      let theory = Gen.random_binary_theory ~rules:4 ~seed () in
      let d = Gen.random_instance ~facts:4 ~seed:(seed + 1000) () in
      check_telemetry (Printf.sprintf "seed %d" seed) theory d)
    random_cases

(* ----------------------------------------------------------------- *)
(* Compiled vs interpreted join engine                                 *)
(* ----------------------------------------------------------------- *)

(* The compiled plans of [Plan] and the reference interpreter must
   enumerate the same solution sets everywhere: plain joins, windowed
   joins, the semi-naive delta decomposition, whole chases under either
   strategy, and budget-trapped runs.  Probe *order* may differ (the
   engines score access paths differently), so solutions are compared as
   sorted sets, and instances with the usual hom-both-ways oracle. *)

module E = Bddfc_hom.Eval

let solution_set ?since engine inst atoms =
  let out = ref [] in
  (match since with
  | None ->
      E.iter_solutions ~engine inst atoms (fun b ->
          out := Smap.bindings b :: !out)
  | Some s ->
      E.iter_solutions_delta ~since:s ~engine inst atoms (fun b ->
          out := Smap.bindings b :: !out));
  List.sort_uniq compare !out

let check_engines_agree name inst atoms ~rounds =
  check
    Alcotest.(list (list (pair string int)))
    (name ^ ": solutions")
    (solution_set E.Interp inst atoms)
    (solution_set E.Compiled inst atoms);
  (* the delta decomposition agrees for every frontier *)
  for since = 1 to min rounds 4 do
    check
      Alcotest.(list (list (pair string int)))
      (Printf.sprintf "%s: delta since %d" name since)
      (solution_set ~since E.Interp inst atoms)
      (solution_set ~since E.Compiled inst atoms)
  done

let test_engine_zoo_solutions () =
  List.iter
    (fun (e : Zoo.entry) ->
      let d = Zoo.database_instance e in
      let r = Chase.run ~max_rounds:6 ~max_elements:2_000 e.Zoo.theory d in
      let inst = r.Chase.instance in
      check_engines_agree e.Zoo.name inst
        (Cq.body e.Zoo.query)
        ~rounds:r.Chase.rounds;
      check
        Alcotest.(list (list int))
        (e.Zoo.name ^ ": answers")
        (List.sort compare (E.answers ~engine:E.Interp inst e.Zoo.query))
        (List.sort compare (E.answers ~engine:E.Compiled inst e.Zoo.query)))
    Zoo.all

let test_engine_random_solutions () =
  (* rule bodies over chased random instances double as a query corpus:
     they mix shared variables, constants and repeated predicates *)
  List.iter
    (fun seed ->
      let theory = Gen.random_binary_theory ~rules:4 ~seed () in
      let d = Gen.random_instance ~facts:4 ~seed:(seed + 1000) () in
      let r = Chase.run ~max_rounds:5 ~max_elements:400 theory d in
      List.iteri
        (fun i rule ->
          check_engines_agree
            (Printf.sprintf "seed %d rule %d" seed i)
            r.Chase.instance (Rule.body rule) ~rounds:r.Chase.rounds)
        (Theory.rules theory))
    random_cases

let test_engine_chase_agreement () =
  (* whole chases driven by either engine are isomorphic, round for
     round, under both strategies *)
  let go ~strategy eval theory d =
    Chase.run ~strategy ~eval ~max_rounds:6 ~max_elements:400 theory d
  in
  List.iter
    (fun seed ->
      let theory = Gen.random_binary_theory ~rules:4 ~seed () in
      let d = Gen.random_instance ~facts:4 ~seed:(seed + 1000) () in
      List.iter
        (fun strategy ->
          check_agree
            (Printf.sprintf "seed %d engines" seed)
            (go ~strategy E.Interp theory d)
            (go ~strategy E.Compiled theory d))
        [ Chase.Naive; Chase.Seminaive ])
    (List.init 20 (fun i -> i * 3))

(* The bench harness's EX-14 workloads (long transitive closures, a
   24-round existential chain) and the zoo at the bench's bounds: the
   strategies agree under the default engine, and the engines agree
   under the default strategy. *)
let bench_workloads =
  let tc = th "e(X,Y), e(Y,Z) -> e(X,Z)." in
  let linear = th "e(X,Y) -> exists Z. e(Y,Z)." in
  let saturate d ?strategy ?eval () =
    Chase.saturate_datalog ?strategy ?eval tc d
  in
  [ ("tc/chain30", saturate (Gen.chain ~len:30 ()));
    ("tc/chain60", saturate (Gen.chain ~len:60 ()));
    ("tc/digraph80",
     saturate (Gen.random_digraph ~nodes:80 ~edges:160 ~seed:7 ()));
    ("linear/seeds8",
     fun ?strategy ?eval () ->
       Chase.run ?strategy ?eval ~max_rounds:24 linear (Gen.seeds ~n:8 ()));
  ]
  @ List.map
      (fun (e : Zoo.entry) ->
        ( e.Zoo.name ^ "/bench",
          fun ?strategy ?eval () ->
            Chase.run ?strategy ?eval ~max_rounds:10 ~max_elements:4000
              e.Zoo.theory (Zoo.database_instance e) ))
      Zoo.all

let test_bench_workload_agreement () =
  List.iter
    (fun (name, (run : ?strategy:_ -> ?eval:_ -> unit -> _)) ->
      check_agree (name ^ " strategies")
        (run ~strategy:Chase.Naive ())
        (run ~strategy:Chase.Seminaive ());
      check_agree (name ^ " engines")
        (run ~eval:E.Interp ())
        (run ~eval:E.Compiled ()))
    bench_workloads

let test_engine_fuel_trap () =
  (* the compiled engine degrades exactly like the interpreter under
     forced exhaustion: no Budget.Exhausted leak, births in range *)
  let t =
    th
      {| e(X,Y) -> exists Z. e(Y,Z).
         e(X,Y), e(Y,Z) -> p(X,Z). |}
  in
  let d = db "e(a,b). e(b,c)." in
  List.iter
    (fun after ->
      List.iter
        (fun eval ->
          let b = Budget.with_fuel_trap ~after (Budget.v ()) in
          match
            Chase.run ~strategy:Chase.Seminaive ~eval ~budget:b ~max_rounds:12
              t d
          with
          | exception Budget.Exhausted _ ->
              Alcotest.failf "engine trap %d leaked Budget.Exhausted" after
          | r ->
              Instance.iter_facts
                (fun f ->
                  let birth = Instance.fact_birth r.Chase.instance f in
                  if birth < 0 || birth > r.Chase.rounds + 1 then
                    Alcotest.failf "engine trap %d: birth %d outside rounds %d"
                      after birth r.Chase.rounds)
                r.Chase.instance)
        [ E.Compiled; E.Interp ])
    [ 1; 2; 3; 5; 8; 13; 21 ]

let test_engine_round_budget_agreement () =
  (* truncated prefixes agree across engines, not just strategies *)
  List.iter
    (fun seed ->
      let theory = Gen.random_binary_theory ~rules:4 ~seed () in
      let d = Gen.random_instance ~facts:4 ~seed:(seed + 1000) () in
      List.iter
        (fun rounds ->
          let go eval =
            Chase.run ~eval
              ~budget:(Budget.v ~rounds ~elements:400 ())
              theory d
          in
          check_agree
            (Printf.sprintf "seed %d rounds %d engines" seed rounds)
            (go E.Interp) (go E.Compiled))
        [ 1; 2; 3 ])
    (List.init 8 (fun i -> i * 7))

(* ----------------------------------------------------------------- *)
(* Query-directed slicing                                              *)
(* ----------------------------------------------------------------- *)

(* Sliced certain answering against the full chase.  The slicer's
   contract (DESIGN.md section 12): over relevant predicates the sliced
   restricted chase derives the same facts round for round, so an
   [Entailed] verdict carries the identical depth, a full-theory
   [Not_entailed] fixpoint forces a sliced one, and exhaustion can only
   be *upgraded* by the slice (the sliced chase does strictly less work,
   e.g. reaching a fixpoint where the padding rules chased on) — never
   flipped or degraded. *)

module Df = Bddfc_analysis.Dataflow
module Judge = Bddfc_finitemodel.Judge
module Pipeline = Bddfc_finitemodel.Pipeline

(* A verdict's Theorem-1 scope: none (certain), true or false. *)
let scope_str (v : Judge.verdict) =
  match v.Judge.scope with
  | None -> "none"
  | Some s -> string_of_bool s.Judge.conjecture_applies

let certainty_str = function
  | Chase.Entailed k -> Printf.sprintf "entailed:%d" k
  | Chase.Not_entailed -> "not-entailed"
  | Chase.Unknown (r, k) ->
      Printf.sprintf "unknown:%s:%d" (Budget.resource_name r) k

let check_slice_compatible name unsliced sliced =
  match (unsliced, sliced) with
  | Chase.Entailed a, Chase.Entailed b ->
      check Alcotest.int (name ^ ": entailment depth") a b
  | Chase.Not_entailed, Chase.Not_entailed -> ()
  | Chase.Unknown _, Chase.Not_entailed ->
      (* the slice reached a fixpoint the padded theory could not *)
      ()
  | Chase.Unknown _, Chase.Unknown _ ->
      check Alcotest.string (name ^ ": same exhaustion")
        (certainty_str unsliced) (certainty_str sliced)
  | _ ->
      Alcotest.failf "%s: unsliced %s vs sliced %s" name
        (certainty_str unsliced) (certainty_str sliced)

let test_slice_zoo_certain () =
  List.iter
    (fun (e : Zoo.entry) ->
      let d = Zoo.database_instance e in
      let unsliced =
        Chase.certain ~max_rounds:8 ~max_elements:4_000 e.Zoo.theory d
          e.Zoo.query
      in
      let sliced =
        Df.certain ~max_rounds:8 ~max_elements:4_000 e.Zoo.theory d
          e.Zoo.query
      in
      check_slice_compatible e.Zoo.name unsliced sliced)
    Zoo.all

let test_slice_random_certain () =
  (* rule bodies over random theories double as the query corpus; every
     seed exercises slices from trivial (everything relevant) to proper *)
  List.iter
    (fun seed ->
      let theory = Gen.random_binary_theory ~rules:4 ~seed () in
      let d = Gen.random_instance ~facts:4 ~seed:(seed + 1000) () in
      List.iteri
        (fun i rule ->
          let q = Rule.body_query rule in
          let unsliced =
            Chase.certain ~max_rounds:6 ~max_elements:4_000 theory d q
          in
          let sliced =
            Df.certain ~max_rounds:6 ~max_elements:4_000 theory d q
          in
          check_slice_compatible
            (Printf.sprintf "seed %d rule %d" seed i)
            unsliced sliced)
        (Theory.rules theory))
    random_cases

let test_slice_judge_agreement () =
  (* the pipeline's slice fast path may only change *how fast* a
     certain verdict arrives, never which verdict: judge with slicing on
     agrees with the default on every zoo workload *)
  let evidence_str (v : Judge.verdict) =
    Fmt.str "%a" Judge.pp_evidence v.Judge.evidence
  in
  List.iter
    (fun (e : Zoo.entry) ->
      let d = Zoo.database_instance e in
      let a = Judge.judge e.Zoo.theory d e.Zoo.query in
      let b =
        Judge.judge
          ~slice:(Df.slice e.Zoo.theory (Ucq.of_cq e.Zoo.query))
          e.Zoo.theory d e.Zoo.query
      in
      check Alcotest.string
        (e.Zoo.name ^ ": judge evidence")
        (evidence_str a) (evidence_str b);
      check Alcotest.string
        (e.Zoo.name ^ ": scope")
        (scope_str a) (scope_str b);
      check Alcotest.bool
        (e.Zoo.name ^ ": chase_terminating")
        a.Judge.chase_terminating b.Judge.chase_terminating)
    Zoo.all

let test_slice_judge_depth_regression () =
  (* a theory that is both certain *and* properly sliceable — the zoo
     has neither, which once hid a depth mismatch: the fast path used a
     raw [Chase.certain] depth, but the pipeline recovers depth from the
     watched round of the *normalized* chase, where spade5's existential
     split lags derivations through witnesses by a round.  The probe now
     goes through the same hide-and-normalize machinery, so both sides
     must report the identical depth. *)
  let t =
    th
      {| e(X,Y) -> exists Z. e(Y,Z).
         e(X,Y), e(Y,Z) -> p(X,Z).
         f(U,V), f(V,W) -> f(U,W). |}
  in
  let d = db "e(a,b). f(a,b). f(b,c)." in
  let q = Parser.parse_query "? p(X,Z)." in
  let sl = Df.slice t (Ucq.of_cq q) in
  check Alcotest.bool "slice is proper (fast path engages)" true
    (Df.is_proper sl);
  let a = Judge.judge t d q and b = Judge.judge ~slice:sl t d q in
  let evidence_str (v : Judge.verdict) =
    Fmt.str "%a" Judge.pp_evidence v.Judge.evidence
  in
  check Alcotest.string "judge evidence (incl. depth)" (evidence_str a)
    (evidence_str b);
  let attempts = Obs.Metrics.counter "pipeline.attempts" in
  let before = Obs.Metrics.value attempts in
  (match Pipeline.construct ~slice:sl t d q with
  | Pipeline.Query_entailed fast_depth -> (
      check Alcotest.int "the fast path answered, no full attempt" 0
        (Obs.Metrics.value attempts - before);
      match Pipeline.construct t d q with
      | Pipeline.Query_entailed full_depth ->
          check Alcotest.int "probe depth = pipeline depth" full_depth
            fast_depth
      | _ -> Alcotest.fail "unsliced pipeline should entail")
  | _ -> Alcotest.fail "fast path should entail on a proper slice")

let test_slice_fuel_trap_deterministic () =
  (* the sliced path charges the same governor the same way on every
     run: a mid-run trap replays identically and never leaks *)
  let t =
    th
      {| e(X,Y) -> exists Z. e(Y,Z).
         e(X,Y), e(Y,Z) -> p(X,Z).
         f(U,V) -> exists W. f(V,W). |}
  in
  let d = db "e(a,b). e(b,c). f(a,b)." in
  let q = Parser.parse_query "? p(X,Z)." in
  List.iter
    (fun after ->
      let go () =
        let b = Budget.with_fuel_trap ~after (Budget.v ()) in
        match Df.certain ~budget:b ~max_rounds:12 t d q with
        | exception Budget.Exhausted _ ->
            Alcotest.failf "sliced trap %d leaked Budget.Exhausted" after
        | c -> certainty_str c
      in
      check Alcotest.string
        (Printf.sprintf "trap %d replays" after)
        (go ()) (go ()))
    [ 1; 2; 3; 5; 8; 13 ]

(* The reference backends at pipeline level.  Under [strategy = Naive]
   and under [eval = Interp], construct and judge give every zoo entry
   the outcome the defaults give: the same evidence, model size and
   refinement depth.  kappa is the same under the interpreter. *)
let test_pipeline_reference_agreement () =
  let n_used = function
    | Some n -> string_of_int n
    | None -> "-"
  in
  let construct_str = function
    | Pipeline.Model (c, st) ->
        Printf.sprintf "model %d elements, n=%s"
          (Instance.num_elements c.Bddfc_finitemodel.Certificate.model)
          (n_used st.Pipeline.n_used)
    | Pipeline.Query_entailed d -> Printf.sprintf "entailed at %d" d
    | Pipeline.Unknown (why, _) -> "unknown: " ^ why
  in
  let judge_str (v : Judge.verdict) =
    Fmt.str "%a, n=%s, scope=%s" Judge.pp_evidence v.Judge.evidence
      (match v.Judge.evidence with
      | Judge.Witness (_, Some st) -> n_used st.Pipeline.n_used
      | _ -> "-")
      (scope_str v)
  in
  let kappa_str (k : Bddfc_rewriting.Rewrite.kappa_result) =
    Printf.sprintf "kappa %d, complete %b" k.kappa k.all_complete
  in
  let default = Pipeline.default_params in
  let configs =
    [ ("naive", { default with strategy = Chase.Naive });
      ("interp", { default with eval = Bddfc_hom.Eval.Interp }) ]
  in
  List.iter
    (fun (e : Zoo.entry) ->
      let d = Zoo.database_instance e in
      let construct params =
        construct_str (Pipeline.construct ~params e.Zoo.theory d e.Zoo.query)
      and judge params =
        judge_str
          (Judge.judge
             ~budget:{ Judge.default_budget with pipeline_params = params }
             e.Zoo.theory d e.Zoo.query)
      in
      let c0 = construct default and j0 = judge default in
      List.iter
        (fun (name, params) ->
          let label what = Printf.sprintf "%s: %s %s" e.Zoo.name what name in
          check Alcotest.string (label "construct") c0 (construct params);
          check Alcotest.string (label "judge") j0 (judge params))
        configs;
      let kappa eval =
        kappa_str
          (Bddfc_rewriting.Rewrite.kappa ~eval ~max_disjuncts:100
             ~max_steps:2_000 e.Zoo.theory)
      in
      check Alcotest.string
        (e.Zoo.name ^ ": kappa interp")
        (kappa Bddfc_hom.Eval.Compiled)
        (kappa Bddfc_hom.Eval.Interp))
    Zoo.all

let suite =
  ( "differential",
    [ tc "zoo: naive vs seminaive agree" test_zoo_agreement;
      tc "zoo: oblivious variant agrees" test_zoo_oblivious_agreement;
      tc "zoo: datalog saturation agrees" test_zoo_saturation_agreement;
      tc "random theories: 60 seeds agree" test_random_agreement;
      tc "random theories: provenance replay agrees"
        test_random_provenance_agreement;
      tc "watch: both strategies stop at the same round" test_watch_agreement;
      tc "round budgets: truncated prefixes agree"
        test_round_budget_agreement;
      tc "fuel traps: no Budget.Exhausted leak, births in range"
        test_fuel_trap_no_leak;
      tc "fuel traps: committed prefix is round-complete"
        test_fuel_trap_prefix_consistent;
      tc "telemetry: zoo events reconcile with instances and registry"
        test_obs_zoo_invariants;
      tc "telemetry: 60 random seeds reconcile" test_obs_random_invariants;
      tc "bench workloads: strategies and engines agree"
        test_bench_workload_agreement;
      tc "engines: zoo solutions and answers agree" test_engine_zoo_solutions;
      tc "engines: 60 random seeds' solution sets agree"
        test_engine_random_solutions;
      tc "engines: chases agree under both strategies"
        test_engine_chase_agreement;
      tc "engines: fuel traps degrade identically" test_engine_fuel_trap;
      tc "engines: round-budget prefixes agree"
        test_engine_round_budget_agreement;
      tc "slicing: zoo certain verdicts compatible" test_slice_zoo_certain;
      tc "slicing: 60 random seeds' verdicts compatible"
        test_slice_random_certain;
      tc "slicing: judge verdicts identical with the fast path on"
        test_slice_judge_agreement;
      tc "slicing: fast-path depth matches the normalized pipeline"
        test_slice_judge_depth_regression;
      tc "slicing: fuel traps replay deterministically, no leak"
        test_slice_fuel_trap_deterministic;
      tc "pipeline: naive chase and interpreter give the default outcome"
        test_pipeline_reference_agreement;
    ] )
