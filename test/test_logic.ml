(* Unit tests for Bddfc_logic: terms, atoms, substitutions, unification,
   conjunctive queries, rules, theories, signatures and the parser. *)

open Bddfc_logic

let check = Alcotest.check
let tc name f = Alcotest.test_case name `Quick f

let v = Term.var
let c = Term.cst

(* ------------------------------------------------------------------ *)
(* Pred / Term / Atom                                                  *)
(* ------------------------------------------------------------------ *)

let test_pred_basics () =
  let p = Pred.make "e" 2 in
  check Alcotest.string "name" "e" (Pred.name p);
  check Alcotest.int "arity" 2 (Pred.arity p);
  check Alcotest.bool "binary" true (Pred.is_binary p);
  check Alcotest.bool "not unary" false (Pred.is_unary p);
  check Alcotest.bool "same symbol" true (Pred.equal p (Pred.make "e" 2));
  check Alcotest.bool "different arity differs" false
    (Pred.equal p (Pred.make "e" 3))

let test_pred_negative_arity () =
  Alcotest.check_raises "negative arity" (Invalid_argument "Pred.make: negative arity")
    (fun () -> ignore (Pred.make "p" (-1)))

let test_term_basics () =
  check Alcotest.bool "var is var" true (Term.is_var (v "X"));
  check Alcotest.bool "cst is cst" true (Term.is_cst (c "a"));
  check Alcotest.(option string) "as_var" (Some "X") (Term.as_var (v "X"));
  check Alcotest.(option string) "as_cst" (Some "a") (Term.as_cst (c "a"));
  check Alcotest.bool "var <> cst" false (Term.equal (v "a") (c "a"))

let test_fresh_vars_distinct () =
  let x1 = Term.fresh_var () and x2 = Term.fresh_var () in
  check Alcotest.bool "fresh distinct" true (x1 <> x2);
  check Alcotest.bool "underscore prefix" true (x1.[0] = '_')

let test_atom_basics () =
  let a = Atom.app "e" [ v "X"; c "a" ] in
  check Alcotest.int "arity" 2 (Atom.arity a);
  check Alcotest.(list string) "vars" [ "X" ] (Atom.vars a);
  check Alcotest.(list string) "consts" [ "a" ] (Atom.consts a);
  check Alcotest.bool "not ground" false (Atom.is_ground a);
  check Alcotest.bool "ground" true (Atom.is_ground (Atom.app "e" [ c "a"; c "b" ]))

let test_atom_arity_mismatch () =
  let p = Pred.make "e" 2 in
  Alcotest.check_raises "arity mismatch"
    (Invalid_argument "Atom.make: e expects 2 arguments, got 1") (fun () ->
      ignore (Atom.make p [ v "X" ]))

let test_atom_sets () =
  let atoms = [ Atom.app "e" [ v "X"; v "Y" ]; Atom.app "p" [ v "Y" ] ] in
  check Alcotest.(list string) "vars of atoms" [ "X"; "Y" ]
    (Sset.elements (Atom.vars_of_atoms atoms))

(* ------------------------------------------------------------------ *)
(* Subst / Unify                                                       *)
(* ------------------------------------------------------------------ *)

let test_subst_apply () =
  let s = Subst.of_bindings [ ("X", c "a"); ("Y", v "Z") ] in
  let a = Atom.app "e" [ v "X"; v "Y" ] in
  check Alcotest.string "apply" "e(a,Z)" (Atom.show (Subst.apply_atom s a))

let test_subst_compose () =
  let s1 = Subst.singleton "X" (v "Y") in
  let s2 = Subst.singleton "Y" (c "a") in
  let s = Subst.compose s1 s2 in
  check Alcotest.string "x through both" "a"
    (Term.show (Subst.apply_term s (v "X")));
  check Alcotest.string "y mapped" "a" (Term.show (Subst.apply_term s (v "Y")))

let test_subst_restrict () =
  let s = Subst.of_bindings [ ("X", c "a"); ("Y", c "b") ] in
  let s' = Subst.restrict [ "X" ] s in
  check Alcotest.bool "kept" true (Subst.mem "X" s');
  check Alcotest.bool "dropped" false (Subst.mem "Y" s')

let test_unify_atoms_basic () =
  let a1 = Atom.app "e" [ v "X"; c "a" ] in
  let a2 = Atom.app "e" [ c "b"; v "Y" ] in
  match Unify.mgu_atoms a1 a2 with
  | None -> Alcotest.fail "expected unifier"
  | Some s ->
      check Alcotest.string "X" "b" (Term.show (Subst.apply_term s (v "X")));
      check Alcotest.string "Y" "a" (Term.show (Subst.apply_term s (v "Y")))

let test_unify_clash () =
  check Alcotest.bool "constant clash" true
    (Unify.mgu_atoms (Atom.app "e" [ c "a" ]) (Atom.app "e" [ c "b" ]) = None);
  check Alcotest.bool "predicate clash" true
    (Unify.mgu_atoms (Atom.app "e" [ c "a" ]) (Atom.app "f" [ c "a" ]) = None)

let test_unify_shared_var () =
  (* e(X, X) with e(a, Y): X=a and Y=a *)
  match Unify.mgu_atoms (Atom.app "e" [ v "X"; v "X" ]) (Atom.app "e" [ c "a"; v "Y" ]) with
  | None -> Alcotest.fail "expected unifier"
  | Some s ->
      check Alcotest.string "X" "a" (Term.show (Subst.resolve_term s (v "X")));
      check Alcotest.string "Y" "a" (Term.show (Subst.resolve_term s (v "Y")))

let test_unify_occurs_free () =
  (* no function symbols: Var/Var chains always unify *)
  match Unify.terms (v "X") (v "Y") with
  | None -> Alcotest.fail "vars must unify"
  | Some s ->
      check Alcotest.string "same class"
        (Term.show (Subst.resolve_term s (v "X")))
        (Term.show (Subst.resolve_term s (v "Y")))

let test_match_atom () =
  let pattern = Atom.app "e" [ v "X"; v "X" ] in
  check Alcotest.bool "match diag" true
    (Unify.match_atom ~pattern ~target:(Atom.app "e" [ c "a"; c "a" ]) <> None);
  check Alcotest.bool "no match offdiag" true
    (Unify.match_atom ~pattern ~target:(Atom.app "e" [ c "a"; c "b" ]) = None);
  (* one-way: target variables are not bound *)
  check Alcotest.bool "pattern constant vs target var" true
    (Unify.match_atom ~pattern:(Atom.app "e" [ c "a"; c "a" ])
       ~target:(Atom.app "e" [ v "Z"; v "Z" ])
    = None)

(* ------------------------------------------------------------------ *)
(* Cq                                                                  *)
(* ------------------------------------------------------------------ *)

let test_cq_vars () =
  let q = Cq.make ~answer:[ "X" ] [ Atom.app "e" [ v "X"; v "Y" ] ] in
  check Alcotest.int "num vars" 2 (Cq.num_vars q);
  check Alcotest.(list string) "existential" [ "Y" ]
    (Cq.SS.elements (Cq.existential_vars q));
  check Alcotest.bool "not boolean" false (Cq.is_boolean q)

let test_cq_bad_answer () =
  Alcotest.check_raises "answer not in body"
    (Invalid_argument "Cq.make: answer variable Z not in body") (fun () ->
      ignore (Cq.make ~answer:[ "Z" ] [ Atom.app "e" [ v "X"; v "Y" ] ]))

let test_cq_rename_apart () =
  let q = Cq.boolean [ Atom.app "e" [ v "X"; v "Y" ] ] in
  let q', _ = Cq.rename_apart q in
  check Alcotest.int "same size" (Cq.num_atoms q) (Cq.num_atoms q');
  let old_vars = Cq.all_vars q and new_vars = Cq.all_vars q' in
  check Alcotest.bool "disjoint" true (Cq.SS.is_empty (Cq.SS.inter old_vars new_vars))

let test_cq_components () =
  let q =
    Cq.boolean
      [ Atom.app "e" [ v "X"; v "Y" ]; Atom.app "e" [ v "Z"; v "W" ] ]
  in
  check Alcotest.int "two components" 2 (List.length (Cq.connected_components q));
  let q2 = Cq.boolean [ Atom.app "e" [ v "X"; v "Y" ]; Atom.app "e" [ v "Y"; v "Z" ] ] in
  check Alcotest.int "one component" 1 (List.length (Cq.connected_components q2))

let test_cq_edges () =
  let q = Cq.boolean [ Atom.app "e" [ v "X"; c "a" ]; Atom.app "r" [ v "X"; v "Y" ] ] in
  (* only variable-variable binary atoms are edges *)
  check Alcotest.int "one edge" 1 (List.length (Cq.edges q))

(* ------------------------------------------------------------------ *)
(* Rule / Theory                                                       *)
(* ------------------------------------------------------------------ *)

let test_rule_frontier () =
  let r = Parser.parse_rule "e(X,Y) -> exists Z. e(Y,Z)." in
  check Alcotest.(list string) "frontier" [ "Y" ] (Rule.SS.elements (Rule.frontier r));
  check Alcotest.(list string) "existential" [ "Z" ]
    (Rule.SS.elements (Rule.existential_vars r));
  check Alcotest.bool "not datalog" false (Rule.is_datalog r);
  check Alcotest.bool "frontier one" true (Rule.is_frontier_one r)

let test_rule_datalog () =
  let r = Parser.parse_rule "e(X,Y), e(Y,Z) -> e(X,Z)." in
  check Alcotest.bool "datalog" true (Rule.is_datalog r);
  check Alcotest.bool "single head" true (Rule.is_single_head r)

let test_rule_empty_body () =
  Alcotest.check_raises "empty body" (Invalid_argument "Rule.make: empty body")
    (fun () ->
      ignore (Rule.make ~name:"r1" ~body:[] ~head:[ Atom.app "p" [ c "a" ] ] ()))

let test_theory_tgps () =
  let t =
    Parser.parse_theory
      {| e(X,Y) -> exists Z. e(Y,Z).
         e(X,Y), e(Y,Z) -> r(X,Z). |}
  in
  let tgps = Theory.tgps t in
  check Alcotest.bool "e is tgp" true (Pred.Set.mem (Pred.make "e" 2) tgps);
  check Alcotest.bool "r is not tgp" false (Pred.Set.mem (Pred.make "r" 2) tgps);
  check Alcotest.bool "tgp pure" true (Theory.tgp_pure t)

let test_theory_not_pure () =
  let t =
    Parser.parse_theory
      {| p(X) -> exists Z. e(X,Z).
         e(X,Y) -> e(Y,X). |}
  in
  check Alcotest.bool "e in both kinds of heads" false (Theory.tgp_pure t)

let test_theory_normalized () =
  let t = Parser.parse_theory "e(X,Y) -> exists Z. e(Y,Z)." in
  check Alcotest.bool "normalized shape" true (Theory.heads_normalized t);
  let t2 = Parser.parse_theory "e(X,Y) -> exists Z. e(Z,Y)." in
  check Alcotest.bool "witness first: not normalized" false (Theory.heads_normalized t2)

let test_signature () =
  let t =
    Parser.parse_theory "e(X,a) -> exists Z. r(X,Z)."
  in
  let sg = Theory.signature t in
  check Alcotest.bool "binary" true (Signature.is_binary sg);
  check Alcotest.(list string) "consts" [ "a" ] (Signature.consts sg);
  check Alcotest.int "max arity" 2 (Signature.max_arity sg)

(* ------------------------------------------------------------------ *)
(* Parser                                                              *)
(* ------------------------------------------------------------------ *)

let test_parse_program () =
  let p =
    Parser.parse_program
      {| % a comment
         e(X,Y) -> exists Z. e(Y,Z).
         e(a,b). e(b,c).
         ? e(X,X). |}
  in
  check Alcotest.int "rules" 1 (List.length p.Parser.rules);
  check Alcotest.int "facts" 2 (List.length p.Parser.facts);
  check Alcotest.int "queries" 1 (List.length p.Parser.queries)

let test_parse_answer_query () =
  let q = Parser.parse_query "?(X,Y) e(X,Y), p(X)." in
  check Alcotest.(list string) "answer" [ "X"; "Y" ] (Cq.answer q);
  check Alcotest.int "atoms" 2 (Cq.num_atoms q)

let test_parse_propositional () =
  let p = Parser.parse_program "halt -> stop. halt." in
  check Alcotest.int "rules" 1 (List.length p.Parser.rules);
  check Alcotest.int "facts" 1 (List.length p.Parser.facts)

let test_parse_errors () =
  let expect_error src =
    match Parser.parse_program src with
    | exception Parser.Parse_error _ -> ()
    | _ -> Alcotest.fail ("expected parse error for: " ^ src)
  in
  expect_error "e(X,Y)";          (* missing terminator *)
  expect_error "e(X, -> e(Y).";   (* broken atom *)
  expect_error "e(X,Y).";         (* non-ground fact *)
  expect_error "? e(X,Y)";        (* missing dot *)
  expect_error "e(X,Y) -> exists. e(Y,Z)." (* missing exists vars *)

let test_parse_roundtrip () =
  let srcs =
    [ "e(X,Y) -> exists Z. e(Y,Z).";
      "e(X,Y), e(Y,Z), e(Z,X) -> exists T. u(X,T).";
      "e(X,Y), e(Y,Z) -> e(X,Z).";
      "p(a) -> q(a)." ]
  in
  List.iter
    (fun src ->
      let r = Parser.parse_rule src in
      let printed = Rule.show r ^ "." in
      let r' = Parser.parse_rule printed in
      check Alcotest.bool ("roundtrip " ^ src) true
        (Atom.equal (List.hd (Rule.head r)) (List.hd (Rule.head r'))
        && List.length (Rule.body r) = List.length (Rule.body r')))
    srcs

let test_parse_underscore_vars () =
  let r = Parser.parse_rule "e(_x, Y) -> p(Y)." in
  check Alcotest.bool "_x is a variable" true
    (Rule.SS.mem "_x" (Rule.body_vars r))

let suite =
  ( "logic",
    [ tc "pred basics" test_pred_basics;
      tc "pred negative arity" test_pred_negative_arity;
      tc "term basics" test_term_basics;
      tc "fresh vars distinct" test_fresh_vars_distinct;
      tc "atom basics" test_atom_basics;
      tc "atom arity mismatch" test_atom_arity_mismatch;
      tc "atom var sets" test_atom_sets;
      tc "subst apply" test_subst_apply;
      tc "subst compose" test_subst_compose;
      tc "subst restrict" test_subst_restrict;
      tc "unify atoms" test_unify_atoms_basic;
      tc "unify clash" test_unify_clash;
      tc "unify shared var" test_unify_shared_var;
      tc "unify var chains" test_unify_occurs_free;
      tc "match atom" test_match_atom;
      tc "cq vars" test_cq_vars;
      tc "cq bad answer var" test_cq_bad_answer;
      tc "cq rename apart" test_cq_rename_apart;
      tc "cq components" test_cq_components;
      tc "cq edges" test_cq_edges;
      tc "rule frontier" test_rule_frontier;
      tc "rule datalog" test_rule_datalog;
      tc "rule empty body" test_rule_empty_body;
      tc "theory tgps" test_theory_tgps;
      tc "theory tgp purity" test_theory_not_pure;
      tc "theory normalized heads" test_theory_normalized;
      tc "signature" test_signature;
      tc "parse program" test_parse_program;
      tc "parse answer query" test_parse_answer_query;
      tc "parse propositional" test_parse_propositional;
      tc "parse errors" test_parse_errors;
      tc "parse roundtrip" test_parse_roundtrip;
      tc "underscore variables" test_parse_underscore_vars;
    ] )
