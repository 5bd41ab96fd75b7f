(* Unit tests for Bddfc_classes: recognizers and the Section 5
   transformations. *)

open Bddfc_logic
open Bddfc_structure
open Bddfc_chase
open Bddfc_classes
open Bddfc_workload

let check = Alcotest.check
let tc name f = Alcotest.test_case name `Quick f

let th src = Parser.parse_theory src
let db src = Instance.of_atoms (Parser.parse_atoms src)
let q src = Parser.parse_query src

(* ------------------------------------------------------------------ *)
(* Recognizers                                                         *)
(* ------------------------------------------------------------------ *)

(* Class membership as the analyzer-backed report states it. *)
let linear t = (Recognize.report t).Recognize.linear
let guarded t = (Recognize.report t).Recognize.guarded
let sticky t = (Recognize.report t).Recognize.sticky
let frontier_one t = (Recognize.report t).Recognize.frontier_one

let test_linear () =
  check Alcotest.bool "single-atom bodies" true
    (linear (th "e(X,Y) -> exists Z. e(Y,Z). p(X) -> q(X)."));
  check Alcotest.bool "join body" false
    (linear (th "e(X,Y), e(Y,Z) -> e(X,Z)."))

let test_guarded () =
  check Alcotest.bool "guard atom" true
    (guarded (th "g(X,Y,Z), e(X,Y) -> exists W. e(Z,W)."));
  check Alcotest.bool "no guard" false
    (guarded (th "e(X,Y), e(Y,Z) -> exists W. r(X,Z,W)."));
  (* linear implies guarded *)
  check Alcotest.bool "linear is guarded" true
    (guarded (th "e(X,Y) -> exists Z. e(Y,Z)."))

let test_sticky () =
  check Alcotest.bool "sticky pair" true
    (sticky (th "p(X) -> exists Y. r(X,Y). r(X,Y) -> p(Y)."));
  (* transitivity is the canonical non-sticky rule once e is generated *)
  check Alcotest.bool "transitivity not sticky" false
    (sticky (th "e(X,Y) -> exists Z. e(Y,Z). e(X,Y), e(Y,Z) -> e(X,Z)."));
  (* a marked variable occurring once is fine *)
  check Alcotest.bool "join on head vars is sticky" true
    (sticky (th "e(X,Y), f(Y,Z) -> exists W. r(X,Y,Z,W)."))

let test_sticky_propagation () =
  (* marking must propagate through head predicates *)
  let t =
    th
      {| p(X,Y) -> q(X,Y).
         q(X,Y), q(Y,Z) -> exists W. p(X,W). |}
  in
  (* Z is not in the head of rule 2: (q,1)/(q,2) positions get marked; the
     marking flows into rule 1's body via head q; Y occurs twice in rule
     2's body at marked positions *)
  check Alcotest.bool "propagated marking breaks stickiness" false
    (sticky t)

let test_frontier_one () =
  check Alcotest.bool "Theorem 3 class" true
    (frontier_one
       (th "e(X,Y), e(Y,Z) -> exists W,V. g(Z,W,V)."));
  check Alcotest.bool "two frontier vars" false
    (frontier_one (th "e(X,Y) -> exists Z. g(X,Y,Z)."))

(* The report counts a rule with fewer than two body atoms as linear and
   a rule with no body atom as guarded, where "exactly one atom" and
   "some atom holds every variable" would say no.  The two readings
   differ only on an empty body, and [Rule.make] refuses one.  A body
   without variables is linear and guarded under both. *)
let test_empty_body () =
  let p = Pred.make "p" 1 in
  let a = Atom.make p [ Term.Cst "a" ] in
  check Alcotest.bool "Rule.make refuses an empty body" true
    (match Rule.make ~name:"r1" ~body:[] ~head:[ a ] () with
    | exception Invalid_argument _ -> true
    | _ -> false);
  let t = th "p(a) -> q(a). p(a), r(b) -> q(b)." in
  check Alcotest.bool "ground single body is linear" true
    (linear (th "p(a) -> q(a)."));
  check Alcotest.bool "ground two-atom body is not linear" false (linear t);
  check Alcotest.bool "ground bodies are guarded" true (guarded t);
  check Alcotest.bool "ground bodies are frontier-one" true (frontier_one t)

let test_report_zoo () =
  let e = Option.get (Zoo.find "ex9") in
  let r = Recognize.report e.Zoo.theory in
  check Alcotest.bool "ex9 linear" true r.Recognize.linear;
  check Alcotest.bool "ex9 sticky" true r.Recognize.sticky;
  check Alcotest.bool "ex9 binary" true r.Recognize.binary;
  check Alcotest.bool "ex9 not WA" false r.Recognize.weakly_acyclic

(* ------------------------------------------------------------------ *)
(* Multihead                                                           *)
(* ------------------------------------------------------------------ *)

let test_multihead_roundtrip () =
  let t =
    Theory.make
      [ Rule.make ~name:"m"
          ~body:[ Atom.app "p" [ Term.var "X" ] ]
          ~head:
            [ Atom.app "e" [ Term.var "X"; Term.var "Z" ];
              Atom.app "q" [ Term.var "Z" ] ]
          () ]
  in
  let s = Multihead.to_single_head t in
  check Alcotest.bool "single-head" true (Theory.all_single_head s.Multihead.theory);
  let d = db "p(a)." in
  List.iter
    (fun qs ->
      let query = q qs in
      let c1 = Chase.certain ~max_rounds:6 t d query in
      let c2 = Chase.certain ~max_rounds:6 s.Multihead.theory d query in
      let b = function
        | Chase.Entailed _ -> true
        | Chase.Not_entailed | Chase.Unknown _ -> false
      in
      check Alcotest.bool ("certain agrees: " ^ qs) (b c1) (b c2))
    [ "? e(a,Z), q(Z)."; "? q(Z)."; "? e(Z,a)."; "? e(a,Z), e(Z,W)." ]

let test_multihead_untouched () =
  let t = th "e(X,Y) -> exists Z. e(Y,Z)." in
  let s = Multihead.to_single_head t in
  check Alcotest.int "no change" 1 (Theory.size s.Multihead.theory)

(* ------------------------------------------------------------------ *)
(* Ternary                                                             *)
(* ------------------------------------------------------------------ *)

let test_ternary_arity () =
  let e = Option.get (Zoo.find "sec54") in
  let enc = Ternary.encode e.Zoo.theory in
  check Alcotest.bool "ternary output" true
    (Signature.max_arity (Theory.signature enc.Ternary.theory) <= 3)

let test_ternary_roundtrip () =
  (* wide facts and queries encode compatibly with the rules *)
  let t =
    th
      {| w(X,Y,Z,U) -> p(U).
         p(X) -> exists A,B,C. w(X,A,B,C). |}
  in
  let enc = Ternary.encode t in
  check Alcotest.bool "ternary" true
    (Signature.max_arity (Theory.signature enc.Ternary.theory) <= 3);
  let d = db "w(a,b,c,d)." in
  let de = Ternary.encode_instance d in
  List.iter
    (fun qs ->
      let query = q qs in
      let qe = Ternary.encode_query query in
      let b = function
        | Chase.Entailed _ -> Some true
        | Chase.Not_entailed -> Some false
        | Chase.Unknown _ -> None
      in
      let c1 = b (Chase.certain ~max_rounds:6 t d query) in
      let c2 = b (Chase.certain ~max_rounds:8 enc.Ternary.theory de qe) in
      match (c1, c2) with
      | Some b1, Some b2 -> check Alcotest.bool ("agrees: " ^ qs) b1 b2
      | _ -> ())
    [ "? p(U)."; "? p(d)."; "? w(a,Y,Z,U)."; "? w(d,Y,Z,U), p(U)." ]

let test_ternary_narrow_untouched () =
  let t = th "e(X,Y) -> exists Z. e(Y,Z)." in
  let enc = Ternary.encode t in
  check Alcotest.int "unchanged" 1 (Theory.size enc.Ternary.theory)

(* ------------------------------------------------------------------ *)
(* Guarded -> binary (Section 5.6)                                     *)
(* ------------------------------------------------------------------ *)

let test_guarded_to_binary_output () =
  let e = Option.get (Zoo.find "guarded_ternary") in
  let gb = Guarded.to_binary e.Zoo.theory in
  check Alcotest.bool "binary output" true (Theory.is_binary gb.Guarded.theory);
  check Alcotest.bool "bigger theory" true
    (Theory.size gb.Guarded.theory > Theory.size e.Zoo.theory)

let test_guarded_to_binary_semantics () =
  let e = Option.get (Zoo.find "guarded_ternary") in
  let gb = Guarded.to_binary e.Zoo.theory in
  let d = db "start(a)." in
  List.iter
    (fun qs ->
      let query = q qs in
      let b = function
        | Chase.Entailed _ -> Some true
        | Chase.Not_entailed -> Some false
        | Chase.Unknown _ -> None
      in
      let c1 = b (Chase.certain ~max_rounds:8 e.Zoo.theory d query) in
      let c2 = b (Chase.certain ~max_rounds:12 gb.Guarded.theory d query) in
      match (c1, c2) with
      | Some b1, Some b2 -> check Alcotest.bool ("agrees: " ^ qs) b1 b2
      | _ -> ())
    [ "? d(Y,Z)."; "? d(Y,Y)."; "? c(a,Z)."; "? c(Z,a)." ]

let test_guarded_rejects_unguarded () =
  match Guarded.to_binary (th "e(X,Y), f(Y,Z) -> exists W. e(Z,W).") with
  | exception Guarded.Unsupported _ -> ()
  | _ -> Alcotest.fail "expected Unsupported for an unguarded rule"

let test_guarded_rejects_order_violation () =
  match Guarded.to_binary (th "g(X,Y), e(Y,X) -> exists W. e(Y,W).") with
  | exception Guarded.Unsupported _ -> ()
  | _ -> Alcotest.fail "expected Unsupported for order violation"

(* ------------------------------------------------------------------ *)
(* Invented symbols                                                    *)
(* ------------------------------------------------------------------ *)

(* A theory whose rules are named r1, r2, ... in order. *)
let named src =
  Theory.make
    (List.mapi
       (fun i r ->
         Rule.make ~name:(Printf.sprintf "r%d" (i + 1)) ~body:(Rule.body r)
           ~head:(Rule.head r) ())
       (Theory.rules (th src)))

(* The input's extensional predicates (read, never derived) stay
   extensional in the output, even when spelled like the symbols the
   transformation invents. *)
let check_own_symbols name input output =
  let heads t =
    List.fold_left
      (fun acc r -> Pred.Set.union acc (Rule.head_preds r))
      Pred.Set.empty (Theory.rules t)
  in
  let edb =
    Pred.Set.diff (Signature.pred_set (Theory.signature input)) (heads input)
  in
  check
    Alcotest.(list string)
    (name ^ ": derives no input EDB predicate") []
    (List.map Pred.name (Pred.Set.elements (Pred.Set.inter edb (heads output))))

let test_guarded_own_symbols () =
  let t =
    named
      {| c(X,Y) -> exists Z. g(X,Y,Z).
         start(X) -> exists Z. c(X,Z).
         g(X,Y,Z), f1(Y,Z) -> d(Y,Z).
         d(X,Y), e_r1(X,Y) -> h(Y). |}
  in
  check_own_symbols "guarded" t (Guarded.to_binary t).Guarded.theory

let test_ternary_own_symbols () =
  let t =
    named
      {| q(X) -> exists A. p(X,X,X,A).
         p(X,Y,Z,U), p_c0(X,Y,Z) -> s(U). |}
  in
  check_own_symbols "ternary" t (Ternary.encode t).Ternary.theory

let test_multihead_own_symbols () =
  let t =
    named
      {| a(X) -> exists Z. b(X,Z), c(Z).
         join_r1_1(X,Y) -> d(X). |}
  in
  check_own_symbols "multihead" t (Multihead.to_single_head t).Multihead.theory

let suite =
  ( "classes",
    [ tc "linear recognizer" test_linear;
      tc "guarded recognizer" test_guarded;
      tc "sticky recognizer" test_sticky;
      tc "sticky marking propagation" test_sticky_propagation;
      tc "frontier-one (Theorem 3)" test_frontier_one;
      tc "zoo report" test_report_zoo;
      tc "multihead round-trip (5.3)" test_multihead_roundtrip;
      tc "multihead untouched" test_multihead_untouched;
      tc "ternary arity (5.2)" test_ternary_arity;
      tc "ternary round-trip" test_ternary_roundtrip;
      tc "ternary narrow untouched" test_ternary_narrow_untouched;
      tc "guarded->binary output (5.6)" test_guarded_to_binary_output;
      tc "guarded->binary semantics" test_guarded_to_binary_semantics;
      tc "guarded rejects unguarded" test_guarded_rejects_unguarded;
      tc "guarded rejects order violation" test_guarded_rejects_order_violation;
      tc "empty and ground bodies" test_empty_body;
      tc "guarded->binary invents its own symbols" test_guarded_own_symbols;
      tc "ternary invents its own symbols" test_ternary_own_symbols;
      tc "multihead invents its own symbols" test_multihead_own_symbols;
    ] )
