(* Unit tests for Bddfc_rewriting: piece unification, UCQ saturation, the
   BDD decision, kappa. *)

open Bddfc_logic
open Bddfc_structure
open Bddfc_chase
open Bddfc_rewriting

let check = Alcotest.check
let tc name f = Alcotest.test_case name `Quick f

let th src = Parser.parse_theory src
let db src = Instance.of_atoms (Parser.parse_atoms src)
let q src = Parser.parse_query src

let linear = th "e(X,Y) -> exists Z. e(Y,Z)."

let test_piece_basic () =
  let rule = Parser.parse_rule "p(X) -> exists Y. e(X,Y)." in
  let steps = Piece.one_steps rule (q "? e(U,V).") in
  check Alcotest.int "one rewriting" 1 (List.length steps);
  check Alcotest.int "body is p" 1 (Cq.num_atoms (List.hd steps));
  check Alcotest.string "predicate" "p"
    (Pred.name (Atom.pred (List.hd (Cq.body (List.hd steps)))))

let test_piece_existential_blocked () =
  (* the witness position joins with an atom outside the piece: no step *)
  let rule = Parser.parse_rule "p(X) -> exists Y. e(X,Y)." in
  let steps = Piece.one_steps rule (q "? e(U,V), r(V,W).") in
  check Alcotest.int "blocked" 0 (List.length steps)

let test_piece_existential_blocked_constant () =
  let rule = Parser.parse_rule "p(X) -> exists Y. e(X,Y)." in
  check Alcotest.int "constant in witness position" 0
    (List.length (Piece.one_steps rule (q "? e(U,a).")));
  (* repeated variable in witness and frontier positions *)
  check Alcotest.int "frontier-witness merge" 0
    (List.length (Piece.one_steps rule (q "? e(U,U).")))

let test_piece_set_unification () =
  (* two atoms sharing the witness variable rewrite together *)
  let rule = Parser.parse_rule "p(X) -> exists Y. e(X,Y)." in
  let steps = Piece.one_steps rule (q "? e(U,V), e(W,V).") in
  (* the piece {e(U,V), e(W,V)} unifies U with W *)
  check Alcotest.bool "piece of two" true
    (List.exists (fun c -> Cq.num_atoms c = 1) steps)

let test_piece_datalog () =
  let rule = Parser.parse_rule "e(X,Y), e(Y,Z) -> e(X,Z)." in
  let steps = Piece.one_steps rule (q "? e(U,V).") in
  check Alcotest.bool "datalog unfolds" true
    (List.exists (fun c -> Cq.num_atoms c = 2) steps)

let test_rewrite_linear_edge () =
  let r = Rewrite.rewrite linear (q "? e(X,Y).") in
  check Alcotest.bool "complete" true r.Rewrite.complete;
  check Alcotest.int "one disjunct" 1 (List.length r.Rewrite.ucq)

let test_rewrite_linear_path () =
  (* a path of any length rewrites to a single edge *)
  let r = Rewrite.rewrite linear (q "? e(X,Y), e(Y,Z), e(Z,W).") in
  check Alcotest.bool "complete" true r.Rewrite.complete;
  check Alcotest.int "collapses to the edge" 1 (List.length r.Rewrite.ucq);
  check Alcotest.int "single atom" 1 (Cq.num_atoms (List.hd r.Rewrite.ucq))

let test_rewrite_loop_query () =
  (* e(X,X) under the successor rule: never rewrites to anything new *)
  let r = Rewrite.rewrite linear (q "? e(X,X).") in
  check Alcotest.bool "complete" true r.Rewrite.complete;
  check Alcotest.int "stays itself" 1 (List.length r.Rewrite.ucq)

let test_rewrite_answer_vars () =
  let r = Rewrite.rewrite linear (q "?(X) e(X,Y).") in
  check Alcotest.bool "complete" true r.Rewrite.complete;
  check Alcotest.int "edge out or edge in" 2 (List.length r.Rewrite.ucq);
  List.iter
    (fun d -> check Alcotest.(list string) "answer kept" [ "X" ] (Cq.answer d))
    r.Rewrite.ucq

let test_rewrite_incomplete_on_transitivity () =
  let trans = th "e(X,Y) -> exists Z. e(Y,Z). e(X,Y), e(Y,Z) -> e(X,Z)." in
  let r =
    Rewrite.rewrite ~max_disjuncts:20 ~max_steps:800 trans (q "? e(X,X).")
  in
  check Alcotest.bool "diverges honestly" false r.Rewrite.complete

let test_rewrite_soundness_vs_chase () =
  (* D |= Psi' iff Chase(D, T) |= Psi, on a complete rewriting *)
  let t =
    th
      {| p(X) -> exists Y. e(X,Y).
         e(X,Y) -> q(Y). |}
  in
  let query = q "? q(Y)." in
  let r = Rewrite.rewrite t query in
  check Alcotest.bool "complete" true r.Rewrite.complete;
  let cases =
    [ ("p(a).", true); ("q(b).", true); ("e(a,b).", true); ("r(a,b).", false) ]
  in
  List.iter
    (fun (src, expected) ->
      let d = db src in
      check Alcotest.bool ("rewriting on " ^ src) expected
        (Rewrite.ucq_holds d r.Rewrite.ucq);
      (* agreement with the chase *)
      match Chase.certain ~max_rounds:10 t d query with
      | Chase.Entailed _ ->
          check Alcotest.bool ("chase agrees on " ^ src) true expected
      | Chase.Not_entailed ->
          check Alcotest.bool ("chase agrees on " ^ src) false expected
      | Chase.Unknown _ -> Alcotest.fail "chase should terminate here")
    cases

let test_rewrite_example1_agreement () =
  (* the Example 1 theory is BDD; spot-check rewriting vs chase on several
     instances and queries *)
  let t = (Option.get (Bddfc_workload.Zoo.find "ex1")).Bddfc_workload.Zoo.theory in
  let queries = [ q "? u(X,Y)."; q "? e(X,Y), e(Y,Z)."; q "? e(X,X)." ] in
  let dbs = [ "e(a,b)."; "e(a,b). e(b,c). e(c,a)."; "e(a,a)." ] in
  List.iter
    (fun query ->
      let r = Rewrite.rewrite ~max_disjuncts:200 ~max_steps:4000 t query in
      check Alcotest.bool ("complete " ^ Cq.show query) true r.Rewrite.complete;
      List.iter
        (fun dsrc ->
          let d = db dsrc in
          let by_rewriting = Rewrite.ucq_holds d r.Rewrite.ucq in
          let by_chase =
            match Chase.certain ~max_rounds:12 t d query with
            | Chase.Entailed _ -> Some true
            | Chase.Not_entailed -> Some false
            | Chase.Unknown _ -> None
          in
          match by_chase with
          | Some expected ->
              check Alcotest.bool
                (Printf.sprintf "%s on %s" (Cq.show query) dsrc)
                expected by_rewriting
          | None ->
              (* infinite chase: rewriting true must imply a finite-depth
                 witness, so rewriting false is the only safe expectation
                 we can check — skip *)
              if by_rewriting then
                Alcotest.failf "rewriting says true but chase ran out on %s"
                  dsrc)
        dbs)
    queries

let test_kappa_example1 () =
  let t = (Option.get (Bddfc_workload.Zoo.find "ex1")).Bddfc_workload.Zoo.theory in
  let k = Rewrite.kappa t in
  check Alcotest.bool "all complete" true k.Rewrite.all_complete;
  check Alcotest.int "kappa = 3 (triangle body)" 3 k.Rewrite.kappa

let test_kappa_incomplete () =
  let trans = th "e(X,Y) -> exists Z. e(Y,Z). e(X,Y), e(Y,Z) -> e(X,Z)." in
  let k = Rewrite.kappa ~max_disjuncts:10 ~max_steps:300 trans in
  check Alcotest.bool "transitivity body diverges" false k.Rewrite.all_complete

let test_rewrite_rejects_multihead () =
  let t =
    Theory.make
      [ Rule.make ~name:"r1"
          ~body:[ Atom.app "p" [ Term.var "X" ] ]
          ~head:
            [ Atom.app "e" [ Term.var "X"; Term.var "Y" ];
              Atom.app "q" [ Term.var "Y" ] ]
          () ]
  in
  match Rewrite.rewrite t (q "? q(X).") with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "expected Invalid_argument on multi-head input"

let suite =
  ( "rewriting",
    [ tc "piece basic" test_piece_basic;
      tc "piece blocked by join" test_piece_existential_blocked;
      tc "piece blocked by constant/merge" test_piece_existential_blocked_constant;
      tc "piece set unification" test_piece_set_unification;
      tc "piece datalog unfolding" test_piece_datalog;
      tc "rewrite linear edge" test_rewrite_linear_edge;
      tc "rewrite linear path" test_rewrite_linear_path;
      tc "rewrite loop query" test_rewrite_loop_query;
      tc "rewrite answer vars" test_rewrite_answer_vars;
      tc "rewrite transitivity diverges" test_rewrite_incomplete_on_transitivity;
      tc "rewriting agrees with chase" test_rewrite_soundness_vs_chase;
      tc "rewriting agrees on Example 1" test_rewrite_example1_agreement;
      tc "kappa of Example 1" test_kappa_example1;
      tc "kappa incomplete" test_kappa_incomplete;
      tc "multi-head rejected" test_rewrite_rejects_multihead;
    ] )
