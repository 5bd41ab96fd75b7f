(* Tests for the extension modules: UCQs, the converging-sequence tool
   (Remark 2 / Lemma 11), the ordering-conjecture tooling (Section 5.5 /
   Conjecture 2), the one-call Judge, and the DOT export. *)

open Bddfc_logic
open Bddfc_structure
open Bddfc_chase
open Bddfc_ptp
open Bddfc_finitemodel
open Bddfc_workload

let check = Alcotest.check
let tc name f = Alcotest.test_case name `Quick f

let q src = Parser.parse_query src
let db src = Instance.of_atoms (Parser.parse_atoms src)

(* ------------------------------------------------------------------ *)
(* Ucq                                                                 *)
(* ------------------------------------------------------------------ *)

let test_ucq_basics () =
  let u = [ q "? e(X,Y)."; q "? r(X,X)." ] in
  check Alcotest.int "size" 2 (Ucq.size u);
  check Alcotest.bool "well formed" true (Ucq.well_formed u);
  check Alcotest.int "max vars" 2 (Ucq.max_vars u);
  check Alcotest.int "total atoms" 2 (Ucq.total_atoms u);
  let mixed = [ q "?(X) e(X,Y)."; q "? r(X,X)." ] in
  check Alcotest.bool "mixed arities rejected" false (Ucq.well_formed mixed)

let test_ucq_union () =
  let u = Ucq.union (Ucq.of_cq (q "? e(X,Y).")) (Ucq.of_cq (q "? r(X,X).")) in
  check Alcotest.int "union size" 2 (Ucq.size u);
  check Alcotest.bool "false is empty" true (Ucq.is_empty [])

(* ------------------------------------------------------------------ *)
(* Converge (Remark 2 / Lemma 11)                                      *)
(* ------------------------------------------------------------------ *)

let test_converge_colored_chain () =
  (* a naturally colored chain: gains die out as n grows *)
  let chain = Gen.null_chain ~consts:1 ~len:14 () in
  let col = Coloring.natural ~m:2 chain in
  let queries =
    Converge.default_queries
      (Pred.Set.elements (Signature.pred_set (Instance.signature chain)))
  in
  (* bidirectional mode: Backward would deliberately let the frontier
     borrow witnesses (gaining out-edge queries there by design) *)
  let trace =
    Converge.sequence ~mode:Refine.Bidirectional ~max_n:4 col queries
  in
  check Alcotest.int "four points" 4 (List.length trace.Converge.points);
  (* quotients grow with n *)
  let sizes = List.map (fun p -> p.Converge.quotient_size) trace.Converge.points in
  check Alcotest.bool "sizes non-decreasing" true
    (List.sort compare sizes = sizes);
  (* nothing is gained at every depth: the conservativity signature *)
  check Alcotest.int "no persistent gains" 0
    (List.length (Converge.persistent trace))

let test_converge_uncolored_chain () =
  (* without colors the self-loop is gained persistently (Example 3) *)
  let chain = Gen.null_chain ~consts:1 ~len:14 () in
  let n = Instance.num_elements chain in
  let trivial =
    Coloring.materialize chain (Array.make n 0) (Array.make n 0)
  in
  let queries =
    Converge.default_queries
      (Pred.Set.elements (Signature.pred_set (Instance.signature chain)))
  in
  let trace = Converge.sequence ~max_n:4 trivial queries in
  let persistent = Converge.persistent trace in
  check Alcotest.bool "the self-loop persists" true
    (List.exists
       (fun (query, _) ->
         List.exists
           (fun a -> Atom.args a = [ Term.Var "Y"; Term.Var "Y" ])
           (Cq.body query))
       persistent)

(* ------------------------------------------------------------------ *)
(* Ordering (Section 5.5 / Conjecture 2)                               *)
(* ------------------------------------------------------------------ *)

let test_ordering_on_closed_chain () =
  let t = Parser.parse_theory "e(X,Y), e(Y,Z) -> e(X,Z)." in
  let base = Gen.null_chain ~consts:0 ~len:8 () in
  let closed = (Chase.saturate_datalog t base).Chase.instance in
  let phi = q "?(A,B) e(A,B)." in
  match Ordering.check closed phi (Instance.elements closed) with
  | Error e -> Alcotest.fail e
  | Ok v ->
      check Alcotest.bool "strict total order" true
        v.Ordering.is_strict_total_order

let test_ordering_rejects_partial () =
  (* a plain chain is not total *)
  let chain = Gen.null_chain ~consts:0 ~len:6 () in
  let phi = q "?(A,B) e(A,B)." in
  match Ordering.check chain phi (Instance.elements chain) with
  | Error e -> Alcotest.fail e
  | Ok v ->
      check Alcotest.bool "not total" false v.Ordering.total;
      check Alcotest.bool "still irreflexive" true v.Ordering.irreflexive

let test_ordering_sec55_does_not_order () =
  (* the paper: the notorious theory does NOT define an ordering *)
  let e = Option.get (Zoo.find "sec55") in
  let chase =
    Chase.run ~max_rounds:10 e.Zoo.theory (Zoo.database_instance e)
  in
  let inst = chase.Chase.instance in
  let phi = q "?(A,B) r(A,B)." in
  match Ordering.check inst phi (Instance.elements inst) with
  | Error err -> Alcotest.fail err
  | Ok v ->
      check Alcotest.bool "r is not a strict total order" false
        v.Ordering.is_strict_total_order

let test_ordering_pigeonhole () =
  (* the "if" direction: a finite model identifies two ordered elements *)
  let chain = Gen.null_chain ~consts:0 ~len:8 () in
  let cyc = Gen.cycle ~len:3 () in
  let phi = q "?(A,B) e(A,B)." in
  match
    Ordering.pigeonhole_violation chain phi ~model:cyc
      (Instance.elements chain)
  with
  | Some (a, b) -> check Alcotest.bool "distinct pair" true (a <> b)
  | None -> Alcotest.fail "a chain into a 3-cycle must identify elements"

(* ------------------------------------------------------------------ *)
(* Judge                                                               *)
(* ------------------------------------------------------------------ *)

module Obs = Bddfc_obs.Obs
module Rewrite = Bddfc_rewriting.Rewrite

(* A verdict's Theorem-1 scope: none (certain), true or false. *)
let scope_str (v : Judge.verdict) =
  match v.Judge.scope with
  | None -> "none"
  | Some s -> string_of_bool s.Judge.conjecture_applies

let test_judge_witness () =
  let e = Option.get (Zoo.find "ex1") in
  let v = Judge.judge e.Zoo.theory (Zoo.database_instance e) e.Zoo.query in
  (match v.Judge.evidence with
  | Judge.Witness (cert, _) ->
      check Alcotest.bool "verified" true (Certificate.is_valid cert)
  | _ -> Alcotest.fail "expected a witness for Example 1");
  check Alcotest.string "Theorem 1 scope" "true" (scope_str v)

let test_judge_certain () =
  let e = Option.get (Zoo.find "remark3") in
  let v = Judge.judge e.Zoo.theory (Zoo.database_instance e) e.Zoo.query in
  match v.Judge.evidence with
  | Judge.Certain 0 -> ()
  | _ -> Alcotest.fail "remark3's query holds in D itself"

let test_judge_nonfc () =
  let e = Option.get (Zoo.find "sec55") in
  let v = Judge.judge e.Zoo.theory (Zoo.database_instance e) e.Zoo.query in
  (match v.Judge.evidence with
  | Judge.No_small_model _ -> ()
  | Judge.Witness _ -> Alcotest.fail "section 5.5 refuted?!"
  | Judge.Certain _ -> Alcotest.fail "the chase avoids Phi"
  | Judge.Open why -> Alcotest.failf "expected small-model absence, got %s" why);
  (* the BDD analysis correctly flags the theory as outside Theorem 1 *)
  check Alcotest.string "not in Theorem 1 scope" "false" (scope_str v)

(* The report kappa runs after the verdict, and only when the query is
   not certain.  On remark3 (certain at depth 0) the judge rewrites
   nothing.  On ex1 and sec55 the scope is exactly a direct kappa at the
   judge's caps. *)
let test_judge_scope_deferred () =
  let steps = Obs.Metrics.counter "rewrite.steps" in
  let judge name =
    let e = Option.get (Zoo.find name) in
    let before = Obs.Metrics.value steps in
    let v = Judge.judge e.Zoo.theory (Zoo.database_instance e) e.Zoo.query in
    (e, v, Obs.Metrics.value steps - before)
  in
  let _, v, moved = judge "remark3" in
  check Alcotest.int "remark3: no rewrite step" 0 moved;
  check Alcotest.bool "remark3: scope = None" true (v.Judge.scope = None);
  let p = Judge.default_budget.Judge.pipeline_params in
  List.iter
    (fun (name, in_scope) ->
      let e, v, _ = judge name in
      let kappa =
        Rewrite.kappa ~max_disjuncts:p.Pipeline.rewrite_max_disjuncts
          ~max_steps:p.Pipeline.rewrite_max_steps e.Zoo.theory
      in
      check Alcotest.bool
        (name ^ ": scope = a direct kappa")
        true
        (v.Judge.scope = Some { Judge.kappa; conjecture_applies = in_scope }))
    [ ("ex1", true); ("sec55", false) ]

(* ------------------------------------------------------------------ *)
(* Dot                                                                 *)
(* ------------------------------------------------------------------ *)

let test_dot_export () =
  let inst = db "e(a,b). p(a)." in
  let dot = Dot.to_string inst in
  check Alcotest.bool "digraph" true
    (String.length dot > 10 && String.sub dot 0 7 = "digraph");
  check Alcotest.bool "edge present" true
    (let re_found =
       let rec contains i =
         i + 2 <= String.length dot
         && (String.sub dot i 2 = "->" || contains (i + 1))
       in
       contains 0
     in
     re_found);
  check Alcotest.bool "constant named" true
    (String.length dot > 0
    && String.concat "" (String.split_on_char '\n' dot) <> "")

let test_dot_colors () =
  let chain = Gen.null_chain ~consts:1 ~len:6 () in
  let col = Coloring.natural ~m:1 chain in
  let dot = Dot.to_string col.Coloring.colored in
  check Alcotest.bool "fillcolor rendered" true
    (let needle = "fillcolor" in
     let n = String.length needle in
     let rec contains i =
       i + n <= String.length dot
       && (String.sub dot i n = needle || contains (i + 1))
     in
     contains 0)

let suite =
  ( "extensions",
    [ tc "ucq basics" test_ucq_basics;
      tc "ucq union" test_ucq_union;
      tc "converge: colored chain settles" test_converge_colored_chain;
      tc "converge: uncolored loop persists" test_converge_uncolored_chain;
      tc "ordering: closed chain is an order" test_ordering_on_closed_chain;
      tc "ordering: plain chain is partial" test_ordering_rejects_partial;
      tc "ordering: sec55 defines no order" test_ordering_sec55_does_not_order;
      tc "ordering: pigeonhole pair" test_ordering_pigeonhole;
      tc "judge: witness (Example 1)" test_judge_witness;
      tc "judge: certain (Remark 3)" test_judge_certain;
      tc "judge: non-FC evidence (5.5)" test_judge_nonfc;
      tc "dot export" test_dot_export;
      tc "dot colors" test_dot_colors;
      tc "judge: scope only after an uncertain verdict"
        test_judge_scope_deferred;
    ] )
