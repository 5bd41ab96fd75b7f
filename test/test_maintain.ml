(* Differential oracle for incremental chase maintenance: a maintained
   instance must be indistinguishable-for-our-purposes from a
   from-scratch chase of the updated database.

   The oracle is hom-both-ways rather than syntactic equality: the
   resumed chase visits triggers in a different global order than a
   fresh chase, so labelled nulls are allocated differently and the
   instances agree only up to null renaming.  One exception where
   bit-identity *is* required and checked: the bailout path, which is
   literally a fresh chase with the same knobs as the reference.

   Counter reconciliation is checked on every non-bailout batch:
     |after| = |before| - deleted + rederived + inserted
   both from the per-batch stats and (in aggregate) from the obs
   registry counters. *)

open Bddfc_budget
open Bddfc_logic
open Bddfc_structure
open Bddfc_chase
open Bddfc_workload
module H = Bddfc_hom.Hom
module Obs = Bddfc_obs.Obs

let check = Alcotest.check
let tc name f = Alcotest.test_case name `Quick f
let th src = Parser.parse_theory src
let atoms src = Parser.parse_atoms src
let db src = Instance.of_atoms (atoms src)

(* ----------------------------------------------------------------- *)
(* The oracle                                                          *)
(* ----------------------------------------------------------------- *)

type verdict = Checked | Bailed | Skipped

(* Saturate [base], apply one update batch both ways — maintained and
   from scratch — and hold them to the oracle.  [Skipped] only when the
   budget-free reference itself failed to reach a comparable state. *)
let run_case ?(max_rounds = 8) ?(max_elements = 2_000) ?bailout name theory
    base ~insert ~retract =
  let d = Instance.copy base in
  let state = Maintain.saturate ~max_rounds ~max_elements theory d in
  let n0 = Instance.num_facts state.Maintain.inst in
  ignore (Maintain.update_db d ~insert ~retract);
  let scratch = Chase.run ~max_rounds ~max_elements theory d in
  match
    Maintain.apply ~max_rounds ~max_elements ?bailout theory ~db:d state
      ~insert ~retract
  with
  | exception Budget.Exhausted _ -> Skipped
  | st, stats -> (
      if not stats.Maintain.bailed_out then
        check Alcotest.int
          (name ^ ": counters reconcile")
          (Instance.num_facts st.Maintain.inst)
          (n0 - stats.Maintain.deleted + stats.Maintain.rederived
         + stats.Maintain.inserted);
      if retract = [] && state.Maintain.outcome = Chase.Fixpoint then
        check Alcotest.bool
          (name ^ ": insert-only batches never delete or bail")
          true
          (stats.Maintain.deleted = 0 && not stats.Maintain.bailed_out);
      match (stats.Maintain.bailed_out, st.Maintain.outcome) with
      | true, _ ->
          (* the bailout re-chased [d] with exactly the reference's
             knobs, so even null ids coincide *)
          check Alcotest.bool
            (name ^ ": bailout is bit-identical to scratch")
            true
            (Instance.equal_facts st.Maintain.inst scratch.Chase.instance);
          Bailed
      | false, Chase.Fixpoint -> (
          match scratch.Chase.outcome with
          | Chase.Fixpoint ->
              (* hom both ways, not equal counts: the resumed chase
                 visits triggers in a different order, so the two
                 universal models need not be isomorphic *)
              check Alcotest.bool
                (name ^ ": hom maintained -> scratch")
                true
                (H.exists st.Maintain.inst scratch.Chase.instance);
              check Alcotest.bool
                (name ^ ": hom scratch -> maintained")
                true
                (H.exists scratch.Chase.instance st.Maintain.inst);
              Checked
          | _ ->
              (* the reference was truncated but the maintained run
                 reached a model of the updated db, so the truncated
                 prefix must map into it *)
              check Alcotest.bool
                (name ^ ": hom truncated scratch -> maintained model")
                true
                (H.exists scratch.Chase.instance st.Maintain.inst);
              Checked)
      | false, _ -> Skipped)

(* ----------------------------------------------------------------- *)
(* Hand-written cases                                                  *)
(* ----------------------------------------------------------------- *)

let tc_theory = th "e(X,Y), e(Y,Z) -> e(X,Z)."

let test_insert_resumes () =
  let base = db "e(a,b). e(b,c)." in
  let v =
    run_case "tc insert" tc_theory base ~insert:(atoms "e(c,d).") ~retract:[]
  in
  check Alcotest.bool "insert case checked" true (v = Checked)

let test_retract_shrinks () =
  let base = db "e(a,b). e(b,c). e(c,d)." in
  let d = Instance.copy base in
  let state = Maintain.saturate tc_theory d in
  check Alcotest.int "saturated closure" 6
    (Instance.num_facts state.Maintain.inst);
  ignore (Maintain.update_db d ~insert:[] ~retract:(atoms "e(b,c)."));
  (* bailout loosened: the cone is most of this tiny instance, and the
     point here is the maintenance path, not the cost model *)
  let st, stats =
    Maintain.apply ~bailout:10. tc_theory ~db:d state ~insert:[]
      ~retract:(atoms "e(b,c).")
  in
  (* e(b,c) and everything transitively through it dies, nothing comes
     back: a-b and c-d are now disconnected *)
  check Alcotest.bool "retraction deleted the cone" true
    (stats.Maintain.deleted >= 4);
  check Alcotest.int "no rederivations possible" 0 stats.Maintain.rederived;
  check Alcotest.int "facts after" 2 (Instance.num_facts st.Maintain.inst)

let test_retract_rederives () =
  (* p(b) has two independent supports; rule order makes the e-rule's
     derivation the recorded one, so retracting e(a,b) must overdelete
     p(b) and the repair round must rederive it from r(c,b) *)
  let theory = th "e(X,Y) -> p(Y). r(X,Y) -> p(Y)." in
  let base = db "e(a,b). r(c,b)." in
  let d = Instance.copy base in
  let state = Maintain.saturate theory d in
  ignore (Maintain.update_db d ~insert:[] ~retract:(atoms "e(a,b)."));
  let st, stats =
    Maintain.apply ~bailout:10. theory ~db:d state ~insert:[]
      ~retract:(atoms "e(a,b).")
  in
  check Alcotest.int "p(b) overdeleted with its support" 2
    stats.Maintain.deleted;
  check Alcotest.int "p(b) rederived from the surviving support" 1
    stats.Maintain.rederived;
  check Alcotest.int "only e(a,b) is net-gone" 2
    (Instance.num_facts st.Maintain.inst)

let test_retract_noops () =
  (* retracting an absent fact, a fact over an unknown constant, or a
     *derived* fact must all be no-ops: retraction is EDB-only *)
  let base = db "e(a,b). e(b,c)." in
  List.iter
    (fun (label, retract) ->
      let d = Instance.copy base in
      let state = Maintain.saturate tc_theory d in
      let n0 = Instance.num_facts state.Maintain.inst in
      ignore (Maintain.update_db d ~insert:[] ~retract);
      let st, stats = Maintain.apply tc_theory ~db:d state ~insert:[] ~retract in
      check Alcotest.int (label ^ ": nothing deleted") 0 stats.Maintain.deleted;
      check Alcotest.bool (label ^ ": no bailout") false
        stats.Maintain.bailed_out;
      check Alcotest.int (label ^ ": instance unchanged") n0
        (Instance.num_facts st.Maintain.inst))
    [
      ("absent", atoms "e(b,a).");
      ("unknown constant", atoms "e(z,z).");
      ("derived, not base", atoms "e(a,c).");
    ]

let test_insert_upgrades_derived_to_given () =
  (* asserting a fact that is currently derived makes it base: a later
     retraction of its original support must not take it down *)
  let theory = th "e(X,Y) -> p(Y)." in
  let d = db "e(a,b)." in
  let state = Maintain.saturate theory d in
  let ins = atoms "p(b)." in
  ignore (Maintain.update_db d ~insert:ins ~retract:[]);
  let state, _ = Maintain.apply theory ~db:d state ~insert:ins ~retract:[] in
  let ret = atoms "e(a,b)." in
  ignore (Maintain.update_db d ~insert:[] ~retract:ret);
  let st, stats = Maintain.apply theory ~db:d state ~insert:[] ~retract:ret in
  check Alcotest.int "only e(a,b) deleted" 1 stats.Maintain.deleted;
  check Alcotest.int "p(b) survives as base" 1
    (Instance.num_facts st.Maintain.inst)

let test_forced_bailout () =
  (* bailout:0. makes any non-empty cone trip the cost model; the
     fallback must still be differentially correct (run_case checks
     bit-identity on the Bailed path) *)
  let base = db "e(a,b). e(b,c). e(c,d)." in
  let v =
    run_case ~bailout:0. "forced bailout" tc_theory base
      ~insert:(atoms "e(d,e).") ~retract:(atoms "e(a,b).")
  in
  check Alcotest.bool "bailed and verified" true (v = Bailed)

let test_truncated_state_rechases () =
  (* a state that never reached fixpoint has incomplete derivation
     records, so any update must fall back to a full re-chase *)
  let theory = th "e(X,Y) -> exists Z. e(Y,Z)." in
  let base = db "e(a,b)." in
  let v =
    run_case ~max_rounds:4 ~max_elements:50 "truncated state" theory base
      ~insert:(atoms "e(b,a).") ~retract:[]
  in
  check Alcotest.bool "truncated state bails" true (v = Bailed)

(* ----------------------------------------------------------------- *)
(* Zoo churn                                                           *)
(* ----------------------------------------------------------------- *)

(* A deterministic batch per entry: retract the first base fact, insert
   two fresh-constant atoms over the first fact's predicate — enough to
   exercise both the delete/rederive and the resumption paths on every
   workload shape in the zoo. *)
let zoo_batch (e : Zoo.entry) =
  match e.Zoo.database with
  | [] -> ([], [])
  | first :: _ ->
      let fresh tag =
        Atom.make (Atom.pred first)
          (List.mapi
             (fun i _ -> Term.cst (Printf.sprintf "zz%s%d" tag i))
             (Atom.args first))
      in
      ([ fresh "a"; fresh "b" ], [ first ])

let test_zoo_churn () =
  let skipped = ref 0 in
  List.iter
    (fun (e : Zoo.entry) ->
      let insert, retract = zoo_batch e in
      match
        run_case e.Zoo.name e.Zoo.theory
          (Zoo.database_instance e)
          ~insert ~retract
      with
      | Checked | Bailed -> ()
      | Skipped -> incr skipped)
    Zoo.all;
  check Alcotest.int "every zoo entry verifiable" 0 !skipped

(* ----------------------------------------------------------------- *)
(* Random sweep                                                        *)
(* ----------------------------------------------------------------- *)

(* Random batches over Gen's signature (binary e/r/f, unary p/q,
   constants a/b/c plus a fresh d): inserts of 1-3 atoms, retracts of
   1-2 — which may or may not name base facts, so no-op retraction is
   fuzzed too. *)
let random_batch ~seed =
  let rng = Random.State.make [| seed; 0xbdd; 0xfc |] in
  let pick l = List.nth l (Random.State.int rng (List.length l)) in
  let consts = [ "a"; "b"; "c"; "d" ] in
  let atom () =
    if Random.State.int rng 3 < 2 then
      Printf.sprintf "%s(%s,%s)."
        (pick [ "e"; "r"; "f" ])
        (pick consts) (pick consts)
    else Printf.sprintf "%s(%s)." (pick [ "p"; "q" ]) (pick consts)
  in
  let batch n =
    atoms (String.concat " " (List.init n (fun _ -> atom ())))
  in
  let insert = batch (1 + Random.State.int rng 3) in
  let retract = batch (1 + Random.State.int rng 2) in
  (insert, retract)

let random_seeds = List.init 60 (fun i -> i * 13)

let test_random_sweep () =
  let checked = ref 0 and bailed = ref 0 and skipped = ref 0 in
  List.iter
    (fun seed ->
      let theory = Gen.random_binary_theory ~rules:4 ~seed () in
      let base = Gen.random_instance ~facts:4 ~seed:(seed + 1000) () in
      let insert, retract = random_batch ~seed in
      match
        run_case ~max_rounds:6 ~max_elements:400
          (Printf.sprintf "seed %d" seed)
          theory base ~insert ~retract
      with
      | Checked -> incr checked
      | Bailed -> incr bailed
      | Skipped -> incr skipped)
    random_seeds;
  (* the sweep must mostly exercise the maintenance path, not the
     bailout; a handful of seeds may exhaust the round cap mid-resume
     (the documented poisoned-state raise) but no more than that *)
  check Alcotest.bool
    (Printf.sprintf "sweep mostly maintained (checked %d bailed %d)"
       !checked !bailed)
    true
    (!checked >= 40);
  check Alcotest.bool
    (Printf.sprintf "sweep almost fully verifiable (skipped %d)" !skipped)
    true (!skipped <= 5)

let test_sequential_batches () =
  (* five batches applied to one evolving state; after each, the state
     must still match a from-scratch chase, and the absolute round
     counter must be monotone *)
  List.iter
    (fun seed ->
      let theory = Gen.random_binary_theory ~rules:4 ~seed () in
      let d = Gen.random_instance ~facts:4 ~seed:(seed + 1000) () in
      let state =
        ref (Maintain.saturate ~max_rounds:6 ~max_elements:400 theory d)
      in
      let last_round = ref !state.Maintain.rounds in
      for batch = 0 to 4 do
        let insert, retract = random_batch ~seed:((seed * 31) + batch) in
        ignore (Maintain.update_db d ~insert ~retract);
        let st, _ =
          Maintain.apply ~max_rounds:6 ~max_elements:400 theory ~db:d !state
            ~insert ~retract
        in
        check Alcotest.bool
          (Printf.sprintf "seed %d batch %d: rounds monotone" seed batch)
          true
          (st.Maintain.rounds >= !last_round);
        last_round := st.Maintain.rounds;
        state := st
      done;
      let scratch = Chase.run ~max_rounds:6 ~max_elements:400 theory d in
      match (!state.Maintain.outcome, scratch.Chase.outcome) with
      | Chase.Fixpoint, Chase.Fixpoint ->
          check Alcotest.bool
            (Printf.sprintf "seed %d: final hom both ways" seed)
            true
            (H.exists !state.Maintain.inst scratch.Chase.instance
            && H.exists scratch.Chase.instance !state.Maintain.inst)
      | _ -> ())
    [ 2; 9; 23; 41 ]

(* ----------------------------------------------------------------- *)
(* Budget exhaustion: poisoned-state determinism                       *)
(* ----------------------------------------------------------------- *)

let trap_theory =
  th
    {| e(X,Y), e(Y,Z) -> e(X,Z).
       e(X,Y) -> p(Y). |}

let test_fuel_trap_determinism () =
  (* a forced exhaustion mid-maintenance must (a) surface as
     Budget.Exhausted — never a silently half-maintained state — and
     (b) trip the same resource at the same point on every replay *)
  let base = db "e(a,b). e(b,c). e(c,d). e(d,e)." in
  let insert = atoms "e(e,f)." and retract = atoms "e(b,c)." in
  let run after =
    let d = Instance.copy base in
    let state = Maintain.saturate ~max_rounds:12 trap_theory d in
    ignore (Maintain.update_db d ~insert ~retract);
    let b = Budget.with_fuel_trap ~after (Budget.v ()) in
    match
      Maintain.apply ~budget:b ~max_rounds:12 ~bailout:10.
        trap_theory ~db:d state ~insert ~retract
    with
    | exception Budget.Exhausted r -> "raised:" ^ Budget.resource_name r
    | _, stats -> if stats.Maintain.bailed_out then "bailed" else "done"
  in
  List.iter
    (fun after ->
      check Alcotest.string
        (Printf.sprintf "trap %d: replay deterministic" after)
        (run after) (run after))
    [ 1; 2; 3; 5; 8 ];
  (* and at least one of those trap points must actually have tripped *)
  check Alcotest.bool "tight trap trips" true
    (String.length (run 1) > 6 && String.sub (run 1) 0 7 = "raised:")

let test_deadline_exhaustion () =
  (* an already-expired deadline: apply must raise rather than return a
     half-maintained state *)
  let d = db "e(a,b). e(b,c). e(c,d)." in
  let state = Maintain.saturate trap_theory d in
  let retract = atoms "e(b,c)." in
  ignore (Maintain.update_db d ~insert:[] ~retract);
  let b = Budget.with_deadline_s (-1.) (Budget.v ()) in
  match
    Maintain.apply ~budget:b ~bailout:10. trap_theory ~db:d state ~insert:[]
      ~retract
  with
  | exception Budget.Exhausted Budget.Deadline -> ()
  | exception Budget.Exhausted r ->
      Alcotest.failf "expected deadline, tripped %s" (Budget.resource_name r)
  | _ -> Alcotest.fail "expired deadline did not raise"

(* ----------------------------------------------------------------- *)
(* Obs counter reconciliation                                          *)
(* ----------------------------------------------------------------- *)

let test_obs_counters_reconcile () =
  let before = Obs.Metrics.snapshot () in
  let d = db "e(a,b). e(b,c). e(c,d)." in
  let state = Maintain.saturate tc_theory d in
  let insert = atoms "e(d,e)." and retract = atoms "e(a,b)." in
  ignore (Maintain.update_db d ~insert ~retract);
  let _, stats = Maintain.apply tc_theory ~db:d state ~insert ~retract in
  let after = Obs.Metrics.snapshot () in
  let delta name =
    Option.value (Obs.Metrics.find_int after name) ~default:0
    - Option.value (Obs.Metrics.find_int before name) ~default:0
  in
  check Alcotest.int "maintain.runs" 1 (delta "maintain.runs");
  check Alcotest.int "maintain.facts_deleted" stats.Maintain.deleted
    (delta "maintain.facts_deleted");
  check Alcotest.int "maintain.facts_rederived" stats.Maintain.rederived
    (delta "maintain.facts_rederived");
  check Alcotest.int "maintain.facts_inserted" stats.Maintain.inserted
    (delta "maintain.facts_inserted");
  check Alcotest.int "maintain.rounds_resumed" stats.Maintain.resumed_rounds
    (delta "maintain.rounds_resumed");
  check Alcotest.int "maintain.bailouts" 0 (delta "maintain.bailouts")

(* ----------------------------------------------------------------- *)

let suite =
  ( "maintain",
    [
      tc "insert-only batch resumes semi-naive" test_insert_resumes;
      tc "retraction deletes the derived cone" test_retract_shrinks;
      tc "overdeleted facts rederive from survivors" test_retract_rederives;
      tc "retraction is EDB-only and absent-safe" test_retract_noops;
      tc "asserting a derived fact upgrades it to base"
        test_insert_upgrades_derived_to_given;
      tc "cost-model bailout is bit-identical to re-chase"
        test_forced_bailout;
      tc "truncated states re-chase on update" test_truncated_state_rechases;
      tc "zoo churn: hom-equivalent both ways" test_zoo_churn;
      tc "random sweep: 60 seeds x random batches" test_random_sweep;
      tc "sequential batches track the evolving db" test_sequential_batches;
      tc "fuel traps are deterministic and raise" test_fuel_trap_determinism;
      tc "expired deadline raises, never half-maintains"
        test_deadline_exhaustion;
      tc "obs counters reconcile with batch stats"
        test_obs_counters_reconcile;
    ] )
