(* Integration tests: each EX-n experiment of DESIGN.md in miniature.
   These cross multiple libraries and pin the paper-level claims. *)

open Bddfc_logic
open Bddfc_structure
open Bddfc_hom
open Bddfc_chase
open Bddfc_rewriting
open Bddfc_ptp
open Bddfc_finitemodel
open Bddfc_classes
open Bddfc_workload

let check = Alcotest.check
let tc name f = Alcotest.test_case name `Quick f
let tc_slow name f = Alcotest.test_case name `Slow f

let q src = Parser.parse_query src
let db src = Instance.of_atoms (Parser.parse_atoms src)

(* EX-1 (Example 1): the naive collapse of the chase onto a 3-cycle is NOT
   a model — the triangle rule fires — while the pipeline model is. *)
let test_ex1_naive_collapse_fails () =
  let e = Option.get (Zoo.find "ex1") in
  (* M' from Example 1: elements a, b, c with a 3-cycle *)
  let m' = db "e(a,b). e(b,c). e(c,a)." in
  check Alcotest.bool "M' is a homomorphic image of the chase" true
    (let chase = Chase.run ~max_rounds:10 e.Zoo.theory (Zoo.database_instance e) in
     Hom.exists chase.Chase.instance m');
  check Alcotest.bool "M' is not a model (triangle fires)" false
    (Model_check.is_model e.Zoo.theory m');
  (* chasing M' diverges, exactly as the paper says *)
  let rechase = Chase.run ~max_rounds:6 e.Zoo.theory m' in
  check Alcotest.bool "Chase(M') does not reach a fixpoint" false
    (Chase.is_model rechase);
  (* ... while the Theorem 2 pipeline returns a genuine model *)
  match Pipeline.construct e.Zoo.theory (Zoo.database_instance e) e.Zoo.query with
  | Pipeline.Model (cert, _) ->
      check Alcotest.bool "pipeline model valid" true (Certificate.is_valid cert)
  | _ -> Alcotest.fail "pipeline should find a model"

(* EX-2 (Examples 3/4): the conservativity frontier of chain colorings:
   with m+1 hues the coloring is conservative up to m but not much
   beyond. *)
let test_ex2_conservativity_frontier () =
  let chain = Gen.null_chain ~consts:1 ~len:12 () in
  List.iter
    (fun m ->
      let col = Coloring.natural ~m chain in
      check Alcotest.bool
        (Printf.sprintf "conservative up to m=%d" m)
        true
        (Conservative.find_conservative_n ~m ~max_n:5 chain col <> None))
    [ 1; 2 ];
  (* and the m=1 coloring fails at size 5: its hue period is 3, so the
     quotient of a long enough prefix contains a 3-cycle that a
     5-variable query sees (Example 4's "not conservative up to m+1") *)
  let col1 = Coloring.natural ~m:1 chain in
  let r = Conservative.check_exact ~m:5 ~n:3 chain col1 in
  check Alcotest.bool "m=1 coloring not conservative up to 5" false
    r.Conservative.conservative

(* EX-3 (Example 6 / Remark 3): an infinite total order is not
   ptp-conservative — on finite prefixes, every quotient gains the
   reflexive query. *)
let test_ex3_order_not_conservative () =
  (* a transitively closed chain prefix: a strict total order.  Example 6
     quantifies over *all* colorings of the infinite order; its finite
     shadow: every coloring with a fixed number of hues fails on a long
     enough prefix (an injective coloring of the prefix would trivially
     succeed, which is exactly why the infinite statement needs the
     pigeonhole). *)
  let t = Parser.parse_theory "e(X,Y), e(Y,Z) -> e(X,Z)." in
  (* the prefix must be long enough for the k-hue pigeonhole to bite:
     two same-hued elements away from both ends *)
  List.iter
    (fun (len, k) ->
      let base = Gen.null_chain ~consts:0 ~len () in
      let closed = (Chase.saturate_datalog t base).Chase.instance in
      let n_elts = Instance.num_elements closed in
      let hue = Array.init n_elts (fun i -> i mod k) in
      let col =
        Coloring.materialize closed hue (Array.make n_elts 0)
      in
      let res = Conservative.check_exact ~m:2 ~n:2 closed col in
      check Alcotest.bool
        (Printf.sprintf "order gains queries (%d hues)" k)
        false res.Conservative.conservative;
      check Alcotest.bool "the failures are gains (reflexive edge)" true
        (res.Conservative.failures <> []
        && List.for_all (fun (_, d) -> d = `Gained) res.Conservative.failures))
    [ (10, 2); (12, 3); (16, 4) ]

(* EX-4 (Examples 7/8, Lemma 5): quotient breaks the datalog rule;
   saturation repairs it without creating elements. *)
let test_ex4_saturation_no_new_elements () =
  let e = Option.get (Zoo.find "ex7") in
  let d = Zoo.database_instance e in
  let chase = Chase.run ~max_rounds:10 e.Zoo.theory d in
  let sk = Skeleton.extract e.Zoo.theory chase in
  let col = Coloring.natural ~m:3 sk.Skeleton.skeleton in
  let g = Bgraph.make col.Coloring.colored in
  let r = Refine.compute ~mode:Refine.Backward ~depth:2 g in
  let qt = Quotient.of_refinement col.Coloring.colored r in
  let m0 = Instance.copy qt.Quotient.quotient in
  let before = Instance.num_elements m0 in
  (* quotient violates the datalog rule *)
  check Alcotest.bool "datalog rule broken before saturation" false
    (Model_check.is_model e.Zoo.theory m0);
  let sat = Chase.saturate_datalog e.Zoo.theory m0 in
  check Alcotest.int "Lemma 5: no new elements" before
    (Instance.num_elements sat.Chase.instance);
  (* Example 8's phenomenon: r-atoms beyond projections of flesh appear *)
  let r_facts = Instance.facts_with_pred sat.Chase.instance (Pred.make "r" 2) in
  let off_diagonal =
    List.exists (fun f -> (Fact.args f).(0) <> (Fact.args f).(1)) r_facts
  in
  check Alcotest.bool "off-diagonal r-atoms derived (Example 8)" true
    off_diagonal

(* EX-5 (Example 9, Lemma 9): the F/G tree quotient has undirected
   4-cycles but no short directed cycles. *)
let test_ex5_tree_quotient_cycles () =
  let e = Option.get (Zoo.find "ex9") in
  let d = Zoo.database_instance e in
  let chase = Chase.run ~max_rounds:7 ~max_elements:4000 e.Zoo.theory d in
  let sk = Skeleton.extract e.Zoo.theory chase in
  let col = Coloring.natural ~m:2 sk.Skeleton.skeleton in
  let g = Bgraph.make col.Coloring.colored in
  let r = Refine.compute ~mode:Refine.Backward ~depth:3 g in
  let qt = Quotient.of_refinement col.Coloring.colored r in
  let base = Coloring.uncolor qt.Quotient.quotient in
  (* no short directed cycles (Lemma 9 + natural coloring) *)
  let qg = Bgraph.make base in
  check Alcotest.bool "no directed cycle of length <= 3" false
    (Bgraph.has_directed_cycle_upto qg 3);
  (* but an undirected 4-cycle of Example 9's shape exists *)
  check Alcotest.bool "undirected 4-cycle" true
    (Eval.holds base (q "? f(X1,X3), f(X2,X3), g(X2,X4), g(X1,X4)."))

(* EX-6: pipeline vs naive baseline on growing instances. *)
let test_ex6_pipeline_scales () =
  let theory = (Option.get (Zoo.find "ex1")).Zoo.theory in
  List.iter
    (fun n ->
      let d = Gen.seeds ~n () in
      match Pipeline.construct theory d (q "? u(X,Y).") with
      | Pipeline.Model (cert, _) ->
          check Alcotest.bool
            (Printf.sprintf "valid at %d seeds" n)
            true (Certificate.is_valid cert)
      | _ -> Alcotest.failf "no model at %d seeds" n)
    [ 1; 2; 3 ]

(* EX-7: BDD detection across the zoo. *)
let test_ex7_bdd_zoo () =
  let bdd name expected =
    let e = Option.get (Zoo.find name) in
    let k = Rewrite.kappa ~max_disjuncts:80 ~max_steps:2000 e.Zoo.theory in
    check Alcotest.bool (name ^ " BDD detection") expected k.Rewrite.all_complete
  in
  bdd "ex1" true;
  bdd "linear" true;
  bdd "sticky" true;
  bdd "ex9" true;
  bdd "remark3" false (* transitivity: rewriting diverges *)

(* EX-8 (Section 5.5): executable non-FC evidence. *)
let test_ex8_nonfc_evidence () =
  let e = Option.get (Zoo.find "sec55") in
  let d = Zoo.database_instance e in
  (* the chase never satisfies Phi on the prefix *)
  (match Chase.certain ~max_rounds:10 e.Zoo.theory d e.Zoo.query with
  | Chase.Entailed _ -> Alcotest.fail "chase must avoid Phi"
  | Chase.Not_entailed | Chase.Unknown _ -> ());
  (* no countermodel with one extra element (exhaustive) *)
  (match
     Naive.exhaustive_absence ~max_candidates:20 ~max_extra:1 e.Zoo.theory d
       e.Zoo.query
   with
  | Naive.No_model -> ()
  | Naive.Counter_model _ -> Alcotest.fail "5.5 refuted"
  | Naive.Too_large _ -> Alcotest.fail "guard"
  | Naive.Absence_exhausted _ -> Alcotest.fail "unexpected budget trip");
  (* and the paper's hand-built finite models satisfy Phi: a lasso *)
  let lasso = db "e(a0,a1). r(a0,a0). e(a1,a1)." in
  let sat = Chase.saturate_datalog e.Zoo.theory lasso in
  check Alcotest.bool "lasso models the TGD" true
    (Model_check.is_model e.Zoo.theory sat.Chase.instance);
  check Alcotest.bool "lasso satisfies Phi" true
    (Eval.holds sat.Chase.instance e.Zoo.query)

(* EX-9 (Lemma 13): bounded-degree prefixes with distance colorings
   preserve small types. *)
let test_ex9_bounded_degree () =
  let e = Option.get (Zoo.find "sec55") in
  let d = Zoo.database_instance e in
  let chase = Chase.run ~max_rounds:8 e.Zoo.theory d in
  let g = Bgraph.make chase.Chase.instance in
  check Alcotest.bool "degree bounded" true (Bgraph.max_degree g <= 6);
  let col = Coloring.distance ~radius:4 chase.Chase.instance in
  let qres = Conservative.check_refine ~m:2 ~n:3 chase.Chase.instance col in
  check Alcotest.bool "no lost queries" true
    (List.for_all (fun (_, dir) -> dir = `Gained) qres.Conservative.failures)

(* EX-10 (Section 5.6): guarded -> binary, then the binary pipeline. *)
let test_ex10_guarded_pipeline () =
  let e = Option.get (Zoo.find "guarded_ternary") in
  let gb = Guarded.to_binary e.Zoo.theory in
  check Alcotest.bool "binary" true (Theory.is_binary gb.Guarded.theory);
  let d = Zoo.database_instance e in
  match Pipeline.construct gb.Guarded.theory d (q "? d(Y,Y).") with
  | Pipeline.Model (cert, _) ->
      check Alcotest.bool "binary pipeline model valid" true
        (Certificate.is_valid cert)
  | Pipeline.Query_entailed _ -> Alcotest.fail "d(Y,Y) is not certain"
  | Pipeline.Unknown (why, _) -> Alcotest.failf "unknown: %s" why

(* EX-11: encodings round-trip (covered per-module; here end-to-end). *)
let test_ex11_encodings () =
  let e = Option.get (Zoo.find "sec54") in
  let enc = Ternary.encode e.Zoo.theory in
  let d = Ternary.encode_instance (Zoo.database_instance e) in
  let qe = Ternary.encode_query e.Zoo.query in
  (* both sides diverge (the 5.4 obstruction) without entailing *)
  match Chase.certain ~max_rounds:6 ~max_elements:2000 enc.Ternary.theory d qe with
  | Chase.Entailed _ -> Alcotest.fail "not certain"
  | Chase.Not_entailed | Chase.Unknown _ -> ()

(* EX-12: restricted vs oblivious growth. *)
let test_ex12_chase_variants () =
  let t = Parser.parse_theory "p(X) -> exists Y. e(X,Y). e(X,Y) -> p(Y)." in
  let d = db "p(a). e(a,b)." in
  let restricted = Chase.run ~max_rounds:5 t d in
  let oblivious = Chase.run ~variant:Chase.Oblivious ~max_rounds:5 t d in
  check Alcotest.bool "oblivious grows at least as much" true
    (Instance.num_elements oblivious.Chase.instance
    >= Instance.num_elements restricted.Chase.instance)

(* Theorem 3 (Section 5.1): a frontier-one non-binary theory through the
   pipeline. *)
let test_theorem3_frontier_one () =
  let t =
    Parser.parse_theory
      {| p(Y) -> exists Z,W. g(Y,Z,W).
         g(Y,Z,W) -> p(Z). |}
  in
  check Alcotest.bool "frontier-one" true (Recognize.report t).Recognize.frontier_one;
  let d = db "p(a)." in
  match Pipeline.construct t d (q "? g(Y,Y,W).") with
  | Pipeline.Model (cert, _) ->
      check Alcotest.bool "Theorem 3 model valid" true (Certificate.is_valid cert)
  | Pipeline.Query_entailed _ -> Alcotest.fail "g(Y,Y,W) is not certain"
  | Pipeline.Unknown (why, _) -> Alcotest.failf "unknown: %s" why

let suite =
  ( "integration",
    [ tc "EX-1 naive collapse vs pipeline (Example 1)" test_ex1_naive_collapse_fails;
      tc "EX-2 conservativity frontier (Examples 3/4)" test_ex2_conservativity_frontier;
      tc "EX-3 orders are not conservative (Example 6)" test_ex3_order_not_conservative;
      tc "EX-4 saturation repairs quotients (Lemma 5)" test_ex4_saturation_no_new_elements;
      tc_slow "EX-5 tree quotient cycles (Example 9)" test_ex5_tree_quotient_cycles;
      tc "EX-6 pipeline scales over seeds" test_ex6_pipeline_scales;
      tc "EX-7 BDD detection on the zoo" test_ex7_bdd_zoo;
      tc "EX-8 non-FC evidence (Section 5.5)" test_ex8_nonfc_evidence;
      tc "EX-9 bounded degree (Lemma 13)" test_ex9_bounded_degree;
      tc "EX-10 guarded pipeline (Section 5.6)" test_ex10_guarded_pipeline;
      tc "EX-11 ternary encoding (Section 5.2)" test_ex11_encodings;
      tc "EX-12 chase variants" test_ex12_chase_variants;
      tc "Theorem 3 frontier-one pipeline" test_theorem3_frontier_one;
    ] )
