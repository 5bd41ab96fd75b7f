(* The budget governor and graceful degradation across every engine.

   The contract under test: whatever budget trips — deadline, any fuel
   counter, or the injected fuel trap — every engine terminates with a
   structured outcome naming the tripped resource and best-effort partial
   results.  No uncaught exceptions, no hangs. *)

open Bddfc_budget
open Bddfc_logic
open Bddfc_structure
open Bddfc_chase
open Bddfc_rewriting
open Bddfc_ptp
open Bddfc_finitemodel
open Bddfc_workload

let check = Alcotest.check
let tc name f = Alcotest.test_case name `Quick f

let th src = Parser.parse_theory src
let db src = Instance.of_atoms (Parser.parse_atoms src)
let q src = Parser.parse_query src

(* The canonical non-terminating theory: an infinite forward chain. *)
let diverging = "e(X,Y) -> exists Z. e(Y,Z)."

let resource = Alcotest.testable Budget.pp_resource ( = )

module Obs = Bddfc_obs.Obs

(* ------------------------- the governor itself ------------------------ *)

let test_fuel_charging () =
  let b = Budget.v ~rounds:3 () in
  check (Alcotest.option Alcotest.int) "initial fuel" (Some 3)
    (Budget.remaining_fuel b Budget.Rounds);
  (match Budget.run b (fun () -> Budget.charge b Budget.Rounds 2) with
  | Ok () -> ()
  | Error _ -> Alcotest.fail "2 of 3 should fit");
  check (Alcotest.option Alcotest.int) "fuel decremented" (Some 1)
    (Budget.remaining_fuel b Budget.Rounds);
  (* uncounted resources are free *)
  (match Budget.run b (fun () -> Budget.charge b Budget.Nodes 1_000_000) with
  | Ok () -> ()
  | Error _ -> Alcotest.fail "no node pool: charge is free");
  match Budget.run b (fun () -> Budget.charge b Budget.Rounds 2) with
  | Error r -> check resource "rounds tripped" Budget.Rounds r
  | Ok () -> Alcotest.fail "2 of 1 must trip"

let test_cap_is_local () =
  let b = Budget.v ~rounds:10 () in
  let c = Budget.cap ~rounds:3 b in
  (match Budget.run c (fun () -> Budget.charge c Budget.Rounds 3) with
  | Ok () -> ()
  | Error _ -> Alcotest.fail "the cap holds 3");
  (* the ceiling is a fresh counter: the parent pool is untouched *)
  check (Alcotest.option Alcotest.int) "parent unscathed" (Some 10)
    (Budget.remaining_fuel b Budget.Rounds);
  check (Alcotest.option Alcotest.int) "cap never exceeds parent" (Some 5)
    (Budget.remaining_fuel (Budget.cap ~rounds:99 (Budget.v ~rounds:5 ()))
       Budget.Rounds)

let test_exhausted_now_probe () =
  let b = Budget.v ~rounds:1 () in
  check (Alcotest.option resource) "fresh budget" None (Budget.exhausted_now b);
  (match Budget.run b (fun () -> Budget.charge b Budget.Rounds 1) with
  | Ok () -> ()
  | Error _ -> Alcotest.fail "first charge fits");
  check (Alcotest.option resource) "probe sees the dry pool"
    (Some Budget.Rounds) (Budget.exhausted_now b)

let test_fuel_trap_deterministic () =
  (* the (n+1)-th charge point trips, whatever pools exist *)
  let trip_at n =
    let b = Budget.with_fuel_trap ~after:n (Budget.v ()) in
    let count = ref 0 in
    match
      Budget.run b (fun () ->
          for _ = 1 to 100 do
            Budget.charge b Budget.Rounds 1;
            incr count
          done)
    with
    | Error _ -> !count
    | Ok () -> Alcotest.fail "the trap must trip within 100 charges"
  in
  check Alcotest.int "after:0 trips immediately" 0 (trip_at 0);
  check Alcotest.int "after:7 allows 7 charges" 7 (trip_at 7)

(* ------------------------------- chase -------------------------------- *)

let test_chase_deadline () =
  let t0 = Unix.gettimeofday () in
  let r =
    Chase.run ~budget:(Budget.v ~deadline_s:0.05 ()) ~max_rounds:1_000_000
      ~max_elements:max_int (th diverging) (db "e(a,b).")
  in
  let elapsed = Unix.gettimeofday () -. t0 in
  (match r.Chase.outcome with
  | Chase.Exhausted Budget.Deadline -> ()
  | o -> Alcotest.failf "expected deadline, got %a" Chase.pp_outcome o);
  check Alcotest.bool "stopped promptly" true (elapsed < 5.0);
  check Alcotest.bool "partial rounds recorded" true (r.Chase.rounds > 0);
  check Alcotest.bool "partial instance kept" true
    (Instance.num_facts r.Chase.instance > 1)

let test_chase_element_fuel () =
  let r =
    Chase.run ~budget:(Budget.v ~elements:5 ()) ~max_rounds:1_000
      (th diverging) (db "e(a,b).")
  in
  (match r.Chase.outcome with
  | Chase.Exhausted Budget.Elements -> ()
  | o -> Alcotest.failf "expected elements, got %a" Chase.pp_outcome o);
  (* 2 base elements + the 5 fueled nulls, nothing more *)
  check Alcotest.int "element fuel respected" 7
    (Instance.num_elements r.Chase.instance)

let test_chase_round_fuel () =
  let r =
    Chase.run ~budget:(Budget.v ~rounds:4 ()) (th diverging) (db "e(a,b).")
  in
  (match r.Chase.outcome with
  | Chase.Exhausted Budget.Rounds -> ()
  | o -> Alcotest.failf "expected rounds, got %a" Chase.pp_outcome o);
  check Alcotest.int "exactly 4 rounds ran" 4 r.Chase.rounds

let test_run_depth_element_fuel_applies () =
  (* run_depth historically passed max_elements:max_int, silently
     defeating any element budget; the governor must now apply *)
  let r =
    Chase.run_depth ~budget:(Budget.v ~elements:3 ()) ~depth:1_000
      (th diverging) (db "e(a,b).")
  in
  match r.Chase.outcome with
  | Chase.Exhausted Budget.Elements -> ()
  | o -> Alcotest.failf "expected elements, got %a" Chase.pp_outcome o

let test_certain_reports_budget () =
  match
    Chase.certain ~budget:(Budget.v ~rounds:5 ()) (th diverging)
      (db "e(a,b).") (q "? e(X,X).")
  with
  | Chase.Unknown (Budget.Rounds, 5) -> ()
  | Chase.Unknown (r, k) ->
      Alcotest.failf "expected Unknown (rounds, 5), got Unknown (%a, %d)"
        Budget.pp_resource r k
  | Chase.Entailed _ | Chase.Not_entailed ->
      Alcotest.fail "the diverging chase cannot conclude in 5 rounds"

let test_provenance_budget () =
  let p =
    Provenance.run ~budget:(Budget.v ~rounds:3 ()) (th diverging)
      (db "e(a,b).")
  in
  check Alcotest.bool "not saturated" false p.Provenance.saturated;
  check (Alcotest.option resource) "tripped rounds" (Some Budget.Rounds)
    p.Provenance.tripped;
  check Alcotest.int "partial rounds recorded" 3 p.Provenance.rounds;
  (* a facts-only budget stops the recording chase too (the deadline is
     only a backstop against a hang) *)
  let p =
    Provenance.run ~budget:(Budget.v ~facts:3 ~deadline_s:5. ())
      (th "e(X,Y) -> exists Z. e(Y,Z).")
      (db "e(a,b).")
  in
  check (Alcotest.option resource) "tripped facts" (Some Budget.Facts)
    p.Provenance.tripped

(* ------------------------------ rewriting ------------------------------ *)

let test_rewrite_step_fuel () =
  (* with both endpoints frozen as answer variables, transitivity makes
     the rewriting diverge: paths of every length become disjuncts *)
  let t = th "e(X,Y), e(Y,Z) -> e(X,Z)." in
  let r =
    Rewrite.rewrite ~max_disjuncts:100_000 ~max_steps:50 ~max_disjunct_vars:64
      t (q "?(X,Y) e(X,Y).")
  in
  check Alcotest.bool "incomplete" false r.Rewrite.complete;
  check (Alcotest.option resource) "step fuel tripped"
    (Some Budget.Rewrite_steps) r.Rewrite.tripped;
  check Alcotest.bool "partial UCQ kept" true (r.Rewrite.ucq <> [])

let test_rewrite_deadline_via_governor () =
  let t = th "e(X,Y), e(Y,Z) -> e(X,Z)." in
  let b = Budget.with_fuel_trap ~after:10 (Budget.v ()) in
  let r =
    Rewrite.rewrite ~budget:b ~max_disjuncts:100_000 ~max_steps:1_000_000
      ~max_disjunct_vars:64 t (q "?(X,Y) e(X,Y).")
  in
  check Alcotest.bool "incomplete under the trap" false r.Rewrite.complete;
  check Alcotest.bool "tripped recorded" true (r.Rewrite.tripped <> None)

let test_kappa_tripped_propagates () =
  let t = th "e(X,Y), e(Y,Z) -> e(X,Z)." in
  let k = Rewrite.kappa ~max_steps:20 ~max_disjuncts:100_000 t in
  check Alcotest.bool "not all complete" false k.Rewrite.all_complete;
  check Alcotest.bool "tripped recorded" true (k.Rewrite.tripped <> None)

(* ----------------------------- refinement ------------------------------ *)

let test_refine_trap_partial () =
  let chain = Gen.null_chain ~consts:1 ~len:30 () in
  let g = Bgraph.make chain in
  let full = Refine.compute ~mode:Refine.Backward ~depth:8 g in
  (* allow the initial classes and two steps, then trip *)
  let b = Budget.with_fuel_trap ~after:2 (Budget.v ()) in
  let partial = Refine.compute ~mode:Refine.Backward ~budget:b ~depth:8 g in
  check Alcotest.bool "tripped recorded" true (partial.Refine.tripped <> None);
  check Alcotest.bool "coarser or equal partition" true
    (partial.Refine.num_classes <= full.Refine.num_classes);
  check Alcotest.bool "classes still cover the graph" true
    (Array.length partial.Refine.cls = Bgraph.size g)

(* ---------------------------- naive search ----------------------------- *)

let test_naive_node_fuel () =
  let e = Option.get (Zoo.find "sec55") in
  match
    Naive.search ~budget:(Budget.v ~nodes:50 ()) e.Zoo.theory
      (Zoo.database_instance e) e.Zoo.query
  with
  | Naive.Budget_out { tripped; nodes } ->
      check resource "node fuel tripped" Budget.Nodes tripped;
      check Alcotest.bool "node count plausible" true (nodes > 0 && nodes <= 51)
  | Naive.Found _ -> Alcotest.fail "sec55 has no countermodel"
  | Naive.Exhausted -> Alcotest.fail "50 nodes cannot exhaust sec55's space"

let test_exhaustive_absence_trap () =
  let e = Option.get (Zoo.find "sec55") in
  match
    Naive.exhaustive_absence
      ~budget:(Budget.with_fuel_trap ~after:5 (Budget.v ()))
      ~max_candidates:20 ~max_extra:1 e.Zoo.theory (Zoo.database_instance e)
      e.Zoo.query
  with
  | Naive.Absence_exhausted _ -> ()
  | _ -> Alcotest.fail "the trap must stop the enumeration inconclusively"

(* ------------------------------ pipeline ------------------------------- *)

let test_pipeline_deadline_terminates () =
  (* the acceptance check: a non-terminating instance under --timeout
     stops within the deadline plus one check interval *)
  let e = Option.get (Zoo.find "sec55") in
  let params =
    { Pipeline.default_params with
      budget = Some (Budget.v ~deadline_s:0.2 ());
      chase_depth = 1_000_000;
      depth_growth = [ 1; 2; 4 ];
    }
  in
  let t0 = Unix.gettimeofday () in
  let outcome =
    Pipeline.construct ~params e.Zoo.theory (Zoo.database_instance e)
      e.Zoo.query
  in
  let elapsed = Unix.gettimeofday () -. t0 in
  check Alcotest.bool "terminated promptly" true (elapsed < 10.0);
  match outcome with
  | Pipeline.Unknown _ -> ()
  | Pipeline.Model _ -> Alcotest.fail "sec55 has no countermodel"
  | Pipeline.Query_entailed _ -> Alcotest.fail "the chase never derives Phi"

let test_pipeline_fuel_exhaustion_is_unknown () =
  let e = Option.get (Zoo.find "sec55") in
  let params =
    { Pipeline.default_params with
      budget = Some (Budget.v ~elements:10 ());
      depth_growth = [ 1 ];
    }
  in
  match
    Pipeline.construct ~params e.Zoo.theory (Zoo.database_instance e)
      e.Zoo.query
  with
  | Pipeline.Unknown _ -> ()
  | _ -> Alcotest.fail "10 elements of fuel cannot settle sec55"

(* The semi-naive trap sweep: force exhaustion at every charge point of
   a delta-driven chase.  The engine must never leak Budget.Exhausted,
   and the committed prefix must be consistent — every stamped round is
   complete or absent, i.e. the facts born in the fully executed rounds
   are exactly those of an untrapped chase of that depth. *)
let test_seminaive_fuel_trap_sweep () =
  (* existential growth and a datalog closure rule, so the trap can land
     mid-delta in either kind of work *)
  let t = th "e(X,Y) -> exists Z. e(Y,Z). e(X,Y), e(Y,Z) -> p(X,Z)." in
  let d = db "e(a,b). e(b,c)." in
  for n = 0 to 60 do
    let b = Budget.with_fuel_trap ~after:n (Budget.v ()) in
    match
      Chase.run ~strategy:Chase.Seminaive ~budget:b ~max_rounds:10 t d
    with
    | exception exn ->
        Alcotest.failf "trap %d escaped the chase: %s" n
          (Printexc.to_string exn)
    | r ->
        (* births never exceed the round being executed when the trap hit *)
        Instance.iter_facts
          (fun f ->
            let birth = Instance.fact_birth r.Chase.instance f in
            if birth < 0 || birth > r.Chase.rounds + 1 then
              Alcotest.failf "trap %d: birth %d outside %d rounds" n birth
                r.Chase.rounds)
          r.Chase.instance;
        (* the fully executed rounds match an untrapped run of that depth *)
        let complete =
          match r.Chase.outcome with
          | Chase.Exhausted _ -> max 0 (r.Chase.rounds - 1)
          | _ -> r.Chase.rounds
        in
        if complete > 0 then begin
          let reference = Chase.run_depth ~depth:complete t d in
          let prefix =
            List.filter
              (fun f -> Instance.fact_birth r.Chase.instance f <= complete)
              (Instance.facts r.Chase.instance)
          in
          check Alcotest.int
            (Printf.sprintf "trap %d: committed prefix facts" n)
            (Instance.num_facts reference.Chase.instance)
            (List.length prefix)
        end
  done

(* The tentpole fault-injection sweep: force exhaustion at the N-th
   budget charge point, for N across the whole pipeline run.  Whatever
   stage the trap lands in, construct must degrade to a structured
   outcome — never raise — and any Model it does produce must verify. *)
let test_pipeline_fuel_trap_sweep () =
  let e = Option.get (Zoo.find "ex1") in
  let d = Zoo.database_instance e in
  for n = 0 to 40 do
    let params =
      { Pipeline.default_params with
        budget = Some (Budget.with_fuel_trap ~after:n (Budget.v ()));
        depth_growth = [ 1 ];
      }
    in
    match Pipeline.construct ~params e.Zoo.theory d e.Zoo.query with
    | Pipeline.Model (cert, _) ->
        check Alcotest.bool
          (Printf.sprintf "trap %d: model verifies" n)
          true (Certificate.is_valid cert)
    | Pipeline.Unknown _ -> ()
    | Pipeline.Query_entailed _ ->
        Alcotest.failf "trap %d: ex1's query is not certain" n
    | exception exn ->
        Alcotest.failf "trap %d escaped: %s" n (Printexc.to_string exn)
  done

(* The number of charge points a run makes: the least [n] whose trap
   [~after:n] never fires.  Traps are sticky, so [fires] is monotone in
   [n]: double until it stops firing, then bisect. *)
let charge_points fires =
  let rec grow hi = if fires hi then grow (2 * hi) else hi in
  let rec bisect lo hi =
    if hi - lo <= 1 then hi
    else
      let mid = (lo + hi) / 2 in
      if fires mid then bisect mid hi else bisect lo mid
  in
  if fires 0 then
    let hi = grow 1 in
    bisect (hi / 2) hi
  else 0

let judge_trapped (e : Zoo.entry) trap =
  let budget =
    { Judge.default_budget with
      pipeline_params =
        { Pipeline.default_params with
          budget =
            Option.map
              (fun n -> Budget.with_fuel_trap ~after:n (Budget.v ()))
              trap;
          depth_growth = [ 1 ];
        };
    }
  in
  Judge.judge ~budget e.Zoo.theory (Zoo.database_instance e) e.Zoo.query

let scope_tripped (v : Judge.verdict) =
  Option.bind v.Judge.scope (fun s -> s.Judge.kappa.Rewrite.tripped)

(* The trap points that land after the verdict, inside the report kappa:
   the judge's last [k] charge points, where [k] is what the same kappa
   charges on its own. *)
let report_kappa_traps (e : Zoo.entry) =
  let p = Pipeline.default_params in
  let total =
    charge_points (fun n -> scope_tripped (judge_trapped e (Some n)) <> None)
  in
  let k =
    charge_points (fun n ->
        (Rewrite.kappa
           ~budget:(Budget.with_fuel_trap ~after:n (Budget.v ()))
           ~max_disjuncts:p.Pipeline.rewrite_max_disjuncts
           ~max_steps:p.Pipeline.rewrite_max_steps e.Zoo.theory)
          .Rewrite.tripped <> None)
  in
  if k = 0 then Alcotest.failf "%s: the report kappa charges nothing" e.Zoo.name;
  List.sort_uniq compare [ total - k; total - ((k + 1) / 2); total - 1 ]

(* Wherever the trap lands, judge degrades to a structured outcome.  A
   trap inside the report kappa, after the verdict, leaves the evidence
   as it is and only marks the scope incomplete. *)
let test_judge_fuel_trap_never_raises () =
  let evidence_str (v : Judge.verdict) =
    Fmt.str "%a" Judge.pp_evidence v.Judge.evidence
  in
  List.iter
    (fun (name, early) ->
      let e = Option.get (Zoo.find name) in
      let untrapped = evidence_str (judge_trapped e None) in
      let late = report_kappa_traps e in
      List.iter
        (fun n ->
          match judge_trapped e (Some n) with
          | v when List.mem n late ->
              check Alcotest.string
                (Printf.sprintf "%s trap %d: the verdict stands" name n)
                untrapped (evidence_str v);
              check Alcotest.bool
                (Printf.sprintf "%s trap %d: the scope kappa tripped" name n)
                true
                (scope_tripped v <> None);
              check Alcotest.bool
                (Printf.sprintf "%s trap %d: out of scope" name n)
                false
                (match v.Judge.scope with
                | Some s -> s.Judge.conjecture_applies
                | None -> true)
          | v -> (
              (* only sec55 has fixed points: no model, Phi not certain *)
              match v.Judge.evidence with
              | Judge.Witness _ ->
                  Alcotest.failf "trap %d: sec55 has no model" n
              | Judge.Certain _ ->
                  Alcotest.failf "trap %d: Phi is not certain" n
              | Judge.No_small_model _ | Judge.Open _ -> ())
          | exception exn ->
              Alcotest.failf "%s trap %d escaped judge: %s" name n
                (Printexc.to_string exn))
        (early @ late))
    [ ("sec55", [ 0; 3; 17; 100; 1_000 ]); ("ex1", []) ]

(* An already-expired deadline still ends in a verdict on every zoo
   entry; a scope computed after it is marked incomplete. *)
let test_judge_expired_deadline () =
  List.iter
    (fun (e : Zoo.entry) ->
      let budget =
        { Judge.default_budget with
          pipeline_params =
            { Pipeline.default_params with
              budget = Some (Budget.v ~deadline_s:(-1.0) ());
            };
        }
      in
      match
        Judge.judge ~budget e.Zoo.theory (Zoo.database_instance e) e.Zoo.query
      with
      | v ->
          if v.Judge.scope <> None then
            check (Alcotest.option resource)
              (e.Zoo.name ^ ": the scope ran out of time")
              (Some Budget.Deadline) (scope_tripped v)
      | exception exn ->
          Alcotest.failf "%s: expired deadline escaped judge: %s" e.Zoo.name
            (Printexc.to_string exn))
    Zoo.all

(* ------------------------- kappa once per construct --------------------- *)

(* The depth attempts of one construct share a kappa.  [kappa_once]
   recomputes a kappa the deadline stopped, with the next attempt's
   budget, and replays any other. *)
let counted_kappa theory =
  let calls = ref 0 in
  let kappa =
    Pipeline.kappa_once (fun budget ->
        incr calls;
        Rewrite.kappa ?budget ~max_disjuncts:100 ~max_steps:2_000 theory)
  in
  (kappa, calls)

let test_kappa_deadline_recomputed () =
  let kappa, calls = counted_kappa (th "p(X) -> q(X). q(X), q(Y) -> r(X,Y).") in
  let first = kappa (Some (Budget.v ~deadline_s:(-1.0) ())) in
  check (Alcotest.option resource) "the first attempt ran out of time"
    (Some Budget.Deadline) first.Rewrite.tripped;
  let second = kappa None in
  check Alcotest.int "the next attempt recomputes" 2 !calls;
  check (Alcotest.option resource) "with its own budget" None
    second.Rewrite.tripped;
  check Alcotest.bool "and completes" true second.Rewrite.all_complete;
  ignore (kappa None);
  check Alcotest.int "a complete kappa is then replayed" 2 !calls

let test_kappa_fuel_reused () =
  let kappa, calls = counted_kappa (th "e(X,Y), e(Y,Z) -> e(X,Z).") in
  let first = kappa (Some (Budget.v ~rewrite_steps:3 ())) in
  check (Alcotest.option resource) "the first attempt ran out of fuel"
    (Some Budget.Rewrite_steps) first.Rewrite.tripped;
  let second = kappa None in
  check Alcotest.int "the next attempt reuses it" 1 !calls;
  check Alcotest.bool "unchanged" true (first == second)

(* End to end: sec55 walks the whole depth schedule, and every attempt
   reaches step 5, yet kappa is computed once — at the default caps
   (incomplete, but no budget trips) and when the step cap stops it. *)
let test_construct_kappa_once () =
  let e = Option.get (Zoo.find "sec55") in
  let d = Zoo.database_instance e in
  List.iter
    (fun max_steps ->
      let params =
        { Pipeline.default_params with rewrite_max_steps = max_steps }
      in
      let before = Obs.Metrics.snapshot () in
      let outcome = Pipeline.construct ~params e.Zoo.theory d e.Zoo.query in
      let after = Obs.Metrics.snapshot () in
      let timer_calls k =
        let c s = Option.fold ~none:0 ~some:fst (Obs.Metrics.find_timer s k) in
        c after - c before
      in
      let count k =
        let c s = Option.value ~default:0 (Obs.Metrics.find_int s k) in
        c after - c before
      in
      (match outcome with
      | Pipeline.Unknown (_, st) ->
          check (Alcotest.option resource)
            (Printf.sprintf "max_steps %d: what stopped kappa" max_steps)
            (if max_steps < 2_000 then Some Budget.Rewrite_steps else None)
            st.Pipeline.tripped
      | _ -> Alcotest.failf "max_steps %d: sec55 has no model" max_steps);
      check Alcotest.int
        (Printf.sprintf "max_steps %d: every attempt ran" max_steps)
        3 (count "pipeline.attempts");
      check Alcotest.int
        (Printf.sprintf "max_steps %d: one kappa" max_steps)
        1
        (timer_calls "pipeline.kappa"))
    [ 2_000; 5 ]

(* --------------------------- observability ----------------------------- *)

(* Every exhaustion funnels through [trip]: the registry counter moves
   whether or not tracing is on, and under a collector the structured
   [budget.tripped] event names the resource that fired. *)
let test_trip_telemetry () =
  let tripped_delta f =
    let before = Obs.Metrics.snapshot () in
    f ();
    let after = Obs.Metrics.snapshot () in
    Option.value ~default:0
      (List.assoc_opt "budget.tripped_total"
         (Obs.Metrics.ints_delta ~before ~after))
  in
  (* trace off: the counter still counts *)
  Obs.Trace.set_sink None;
  let d =
    tripped_delta (fun () ->
        ignore
          (Chase.run
             ~budget:(Budget.v ~rounds:2 ())
             (th diverging) (db "e(a,b).")))
  in
  check Alcotest.int "counter moves with tracing off" 1 d;
  (* trace on: same counter movement plus the structured event *)
  let c = Obs.Trace.install_collector () in
  let d =
    tripped_delta (fun () ->
        ignore
          (Chase.run
             ~budget:(Budget.v ~rounds:2 ())
             (th diverging) (db "e(a,b).")))
  in
  Obs.Trace.set_sink None;
  check Alcotest.int "counter moves with tracing on" 1 d;
  (match Obs.Trace.find_events (Obs.Trace.root c) "budget.tripped" with
  | [ attrs ] ->
      check Alcotest.bool "event names the tripped resource" true
        (List.assoc_opt "resource" attrs
        = Some (Obs.Str (Budget.resource_name Budget.Rounds)))
  | l -> Alcotest.failf "expected 1 budget.tripped event, got %d"
           (List.length l));
  (* the injected fault goes through the same funnel *)
  let c = Obs.Trace.install_collector () in
  let b = Budget.with_fuel_trap ~after:0 (Budget.v ()) in
  (match Budget.run b (fun () -> Budget.charge b Budget.Nodes 1) with
  | Error Budget.Nodes -> ()
  | Error r -> Alcotest.failf "trap blamed %a" Budget.pp_resource r
  | Ok () -> Alcotest.fail "an after:0 trap must trip at once");
  Obs.Trace.set_sink None;
  check Alcotest.int "trap emits the event too" 1
    (List.length (Obs.Trace.find_events (Obs.Trace.root c) "budget.tripped"))

let suite =
  ( "budget",
    [ tc "fuel charging and exhaustion" test_fuel_charging;
      tc "caps are local ceilings" test_cap_is_local;
      tc "exhausted_now probe" test_exhausted_now_probe;
      tc "fuel trap is deterministic" test_fuel_trap_deterministic;
      tc "chase: deadline" test_chase_deadline;
      tc "chase: element fuel" test_chase_element_fuel;
      tc "chase: round fuel" test_chase_round_fuel;
      tc "chase: run_depth element hole closed"
        test_run_depth_element_fuel_applies;
      tc "chase: semi-naive fuel-trap sweep" test_seminaive_fuel_trap_sweep;
      tc "chase: certain reports the tripped budget"
        test_certain_reports_budget;
      tc "provenance: budget recorded" test_provenance_budget;
      tc "rewrite: step fuel" test_rewrite_step_fuel;
      tc "rewrite: trap via governor" test_rewrite_deadline_via_governor;
      tc "kappa: tripped propagates" test_kappa_tripped_propagates;
      tc "refine: trap yields a sound partial" test_refine_trap_partial;
      tc "naive: node fuel" test_naive_node_fuel;
      tc "naive: exhaustive trap" test_exhaustive_absence_trap;
      tc "pipeline: deadline terminates" test_pipeline_deadline_terminates;
      tc "pipeline: fuel exhaustion is Unknown"
        test_pipeline_fuel_exhaustion_is_unknown;
      tc "pipeline: fault-injection sweep" test_pipeline_fuel_trap_sweep;
      tc "judge: fault injection never raises"
        test_judge_fuel_trap_never_raises;
      tc "kappa once: a deadline-stopped kappa is recomputed"
        test_kappa_deadline_recomputed;
      tc "kappa once: a fuel-stopped kappa is reused" test_kappa_fuel_reused;
      tc "kappa once: one kappa across the depth schedule"
        test_construct_kappa_once;
      tc "trip telemetry: counter always, event under tracing"
        test_trip_telemetry;
      tc "judge: an expired deadline ends in a verdict"
        test_judge_expired_deadline;
    ] )
