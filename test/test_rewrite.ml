(* The rewriting loop against its reference (reference_rewrite.ml).

   The library tests each narrow candidate against the kept set before
   minimizing it, and minimizes only the survivors; the reference
   minimizes every candidate first.  The two must agree exactly: the same
   disjuncts in the same order, the same step count, completeness and
   trip, and the same kappa.  Inputs: every rule body of every zoo theory,
   both as written and after the pipeline's normalization (the query
   hidden, then spade5), the random theories and queries of the hc
   suite, and fuel-trap points; each under both containment backends. *)

open Bddfc_budget
open Bddfc_logic
open Bddfc_hom
open Bddfc_finitemodel
open Bddfc_workload
module Rewrite = Bddfc_rewriting.Rewrite
module Reference = Reference_rewrite
module M = Bddfc_obs.Obs.Metrics

let check = Alcotest.check
let tc name f = Alcotest.test_case name `Quick f
let modes = [ Hc.Interned; Hc.Structural ]

(* Both loops draw variables from the global fresh-name supply: pin it,
   so structural equality of the disjuncts is the right oracle. *)
let pinned f =
  Term.reset_fresh_counter ();
  f ()

(* Same disjuncts in the same order, same steps, kept count,
   completeness and trip. *)
let check_result = Test_hc.check_rewrite_agrees

let check_kappa name (a : Rewrite.kappa_result) (b : Rewrite.kappa_result) =
  check Alcotest.int (name ^ ": kappa") a.Rewrite.kappa b.Rewrite.kappa;
  check Alcotest.bool (name ^ ": all_complete") a.Rewrite.all_complete
    b.Rewrite.all_complete;
  check
    Alcotest.(list (triple string int bool))
    (name ^ ": per_rule") a.Rewrite.per_rule b.Rewrite.per_rule;
  check
    Alcotest.(option string)
    (name ^ ": tripped")
    (Option.map Budget.resource_name a.Rewrite.tripped)
    (Option.map Budget.resource_name b.Rewrite.tripped)

(* The pipeline's rewrite caps. *)
let max_disjuncts = Pipeline.default_params.Pipeline.rewrite_max_disjuncts
let max_steps = Pipeline.default_params.Pipeline.rewrite_max_steps

let agree_on ?(max_disjuncts = max_disjuncts) ?(max_steps = max_steps) name
    theory =
  List.iter
    (fun hc ->
      let name = Printf.sprintf "%s [%s]" name (Hc.mode_tag hc) in
      List.iter
        (fun rule ->
          let body = Rule.body_query rule in
          check_result
            (name ^ " " ^ Rule.name rule)
            (pinned (fun () ->
                 Reference.rewrite ~hc ~max_disjuncts ~max_steps theory body))
            (pinned (fun () ->
                 Rewrite.rewrite ~hc ~max_disjuncts ~max_steps theory body)))
        (Theory.rules theory);
      check_kappa name
        (pinned (fun () -> Reference.kappa ~hc ~max_disjuncts ~max_steps theory))
        (pinned (fun () -> Rewrite.kappa ~hc ~max_disjuncts ~max_steps theory)))
    modes

let test_zoo () =
  List.iter
    (fun (e : Zoo.entry) ->
      if Theory.all_single_head e.Zoo.theory then
        agree_on e.Zoo.name e.Zoo.theory;
      let hidden = Normalize.hide_query e.Zoo.theory e.Zoo.query in
      match Normalize.spade5 hidden.Normalize.theory with
      | exception Normalize.Unsupported _ -> ()
      | split -> agree_on (e.Zoo.name ^ "/t2") split.Normalize.theory)
    Zoo.all

(* The hc suite's random theories and queries (same seeds and caps). *)
let test_random () =
  let max_disjuncts = 30 and max_steps = 150 in
  for seed = 0 to 59 do
    let theory = Gen.random_binary_theory ~rules:4 ~seed () in
    let st = Random.State.make [| seed; 401 |] in
    let query = Test_hc.random_cq st in
    let name = Printf.sprintf "seed %d" seed in
    List.iter
      (fun hc ->
        check_result
          (Printf.sprintf "%s [%s]" name (Hc.mode_tag hc))
          (pinned (fun () ->
               Reference.rewrite ~hc ~max_disjuncts ~max_steps theory query))
          (pinned (fun () ->
               Rewrite.rewrite ~hc ~max_disjuncts ~max_steps theory query)))
      modes;
    agree_on ~max_disjuncts ~max_steps name theory
  done

(* A candidate wider than [max_disjunct_vars] takes the minimize-first
   path, and marks the run incomplete even when the kept set subsumes
   it.  Narrow caps make such candidates common. *)
let test_wide_candidates () =
  List.iter
    (fun (e : Zoo.entry) ->
      if Theory.all_single_head e.Zoo.theory then
        List.iter
          (fun max_disjunct_vars ->
            List.iter
              (fun hc ->
                let t = e.Zoo.theory and q = e.Zoo.query in
                check_result
                  (Printf.sprintf "%s vars<=%d [%s]" e.Zoo.name
                     max_disjunct_vars (Hc.mode_tag hc))
                  (pinned (fun () ->
                       Reference.rewrite ~hc ~max_disjuncts ~max_steps:300
                         ~max_disjunct_vars t q))
                  (pinned (fun () ->
                       Rewrite.rewrite ~hc ~max_disjuncts ~max_steps:300
                         ~max_disjunct_vars t q)))
              modes)
          [ 2; 3; 4; 6 ])
    Zoo.all;
  (* the second rule's rewriting is a 4-variable core that the first
     rule's p(X) subsumes: the run is still incomplete, as it always was *)
  let theory =
    Parser.parse_theory
      "p(X) -> q(X). p(X), e(X,Y), e(Y,Z), e(Z,W) -> q(X)."
  in
  let query = Parser.parse_query "? q(X)." in
  List.iter
    (fun hc ->
      let name = "subsumed wide core [" ^ Hc.mode_tag hc ^ "]" in
      let r =
        pinned (fun () ->
            Rewrite.rewrite ~hc ~max_disjunct_vars:3 theory query)
      in
      check_result name
        (pinned (fun () ->
             Reference.rewrite ~hc ~max_disjunct_vars:3 theory query))
        r;
      check Alcotest.bool (name ^ ": incomplete") false r.Rewrite.complete)
    modes

(* Both loops charge the governor at the same points, so a trap lands on
   the same step, and an expired deadline trips before the first. *)
let test_budget_points () =
  let theory =
    Parser.parse_theory "e(X,Y) -> e(Y,X). e(X,Y), e(Y,Z) -> e(X,Z)."
  in
  let query = Parser.parse_query "? e(X,Y)." in
  let budgets =
    ("deadline 0", fun () -> Budget.v ~deadline_s:(-1.0) ())
    :: List.map
         (fun after ->
           ( Printf.sprintf "trap %d" after,
             fun () -> Budget.with_fuel_trap ~after (Budget.v ()) ))
         [ 0; 1; 2; 3; 5; 8; 13; 21; 55 ]
  in
  List.iter
    (fun hc ->
      List.iter
        (fun (name, budget) ->
          check_result
            (Printf.sprintf "%s [%s]" name (Hc.mode_tag hc))
            (pinned (fun () ->
                 Reference.rewrite ~budget:(budget ()) ~hc ~max_disjuncts:40
                   ~max_steps:200 theory query))
            (pinned (fun () ->
                 Rewrite.rewrite ~budget:(budget ()) ~hc ~max_disjuncts:40
                   ~max_steps:200 theory query)))
        budgets)
    modes

(* remark3's body rewriting collapses 2,001 candidates onto a handful of
   kept disjuncts: nearly every candidate is dropped before minimizing,
   and the counter says so. *)
let test_presubsumed_counter () =
  let e = Option.get (Zoo.find "remark3") in
  let before = M.snapshot () in
  let r =
    Rewrite.rewrite ~hc:Hc.Interned ~max_disjuncts ~max_steps e.Zoo.theory
      e.Zoo.query
  in
  let after = M.snapshot () in
  let count k =
    Option.value (M.find_int after k) ~default:0
    - Option.value (M.find_int before k) ~default:0
  in
  check Alcotest.int "rewrite.steps counts every candidate" r.Rewrite.generated
    (count "rewrite.steps");
  check Alcotest.bool "most candidates never reach minimize" true
    (count "rewrite.presubsumed" > 9 * r.Rewrite.generated / 10);
  check Alcotest.bool "presubsumed candidates are steps" true
    (count "rewrite.presubsumed" <= r.Rewrite.generated)

let suite =
  ( "rewrite",
    [
      tc "zoo bodies: library loop equals the reference" test_zoo;
      tc "random theories: library loop equals the reference" test_random;
      tc "wide candidates: same completeness as the reference"
        test_wide_candidates;
      tc "budget points: same trips as the reference" test_budget_points;
      tc "presubsumed counter" test_presubsumed_counter;
    ] )
