(* Unit tests for Bddfc_chase: the chase engine, skeletons, termination
   criteria. *)

open Bddfc_budget
open Bddfc_logic
open Bddfc_structure
open Bddfc_hom
open Bddfc_chase
open Bddfc_workload

let check = Alcotest.check
let tc name f = Alcotest.test_case name `Quick f

let th src = Parser.parse_theory src
let db src = Instance.of_atoms (Parser.parse_atoms src)
let q src = Parser.parse_query src

let test_chase_fixpoint () =
  (* weakly acyclic: the chase terminates and is a model *)
  let t = th "p(X) -> exists Y. e(X,Y). e(X,Y) -> q(Y)." in
  let r = Chase.run t (db "p(a). p(b).") in
  check Alcotest.bool "fixpoint" true (Chase.is_model r);
  check Alcotest.int "two witnesses" 4 (Instance.num_elements r.Chase.instance);
  check Alcotest.int "facts: 2 p + 2 e + 2 q" 6 (Instance.num_facts r.Chase.instance)

let test_chase_restricted_reuses () =
  (* restricted chase does not create a witness when one exists *)
  let t = th "p(X) -> exists Y. e(X,Y)." in
  let r = Chase.run t (db "p(a). e(a,b).") in
  check Alcotest.bool "fixpoint immediately" true (Chase.is_model r);
  check Alcotest.int "no new elements" 2 (Instance.num_elements r.Chase.instance)

let test_chase_oblivious_creates () =
  let t = th "p(X) -> exists Y. e(X,Y)." in
  let r = Chase.run ~variant:Chase.Oblivious t (db "p(a). e(a,b).") in
  check Alcotest.int "oblivious adds a fresh witness" 3
    (Instance.num_elements r.Chase.instance)

let test_chase_round_budget () =
  let t = th "e(X,Y) -> exists Z. e(Y,Z)." in
  let r = Chase.run ~max_rounds:7 t (db "e(a,b).") in
  check Alcotest.bool "budget hit" true
    (r.Chase.outcome = Chase.Exhausted Budget.Rounds);
  (* one new element per round *)
  check Alcotest.int "chain grew" 9 (Instance.num_elements r.Chase.instance)

let test_chase_simultaneous_rounds () =
  (* both seeds progress in the same round *)
  let t = th "e(X,Y) -> exists Z. e(Y,Z)." in
  let r = Chase.run ~max_rounds:3 t (Gen.seeds ~n:2 ()) in
  check Alcotest.int "two chains of 3 new elements" (4 + 6)
    (Instance.num_elements r.Chase.instance)

let test_chase_demand_dedup () =
  (* two rules demanding the same head instance create one witness *)
  let t =
    th
      {| p(X) -> exists Y. e(X,Y).
         r(X) -> exists Y. e(X,Y). |}
  in
  let res = Chase.run t (db "p(a). r(a).") in
  check Alcotest.int "single shared witness" 2
    (Instance.num_elements res.Chase.instance)

let test_chase_datalog_only () =
  let t = th "e(X,Y), e(Y,Z) -> e(X,Z). e(X,Y) -> exists W. e(Y,W)." in
  let r = Chase.saturate_datalog t (db "e(a,b). e(b,c). e(c,d).") in
  check Alcotest.bool "fixpoint" true (r.Chase.outcome = Chase.Fixpoint);
  check Alcotest.int "no new elements" 4 (Instance.num_elements r.Chase.instance);
  (* transitive closure of a 3-edge path: 3 + 2 + 1 edges *)
  check Alcotest.int "closure facts" 6 (Instance.num_facts r.Chase.instance)

let test_chase_head_constants () =
  let t = th "p(X) -> e(X,a)." in
  let r = Chase.run t (db "p(b).") in
  check Alcotest.bool "holds" true (Eval.holds r.Chase.instance (q "? e(b,a)."))

let test_certain () =
  let t = th "e(X,Y) -> exists Z. e(Y,Z)." in
  let d = db "e(a,b)." in
  (match Chase.certain ~max_rounds:10 t d (q "? e(X,Y), e(Y,Z).") with
  | Chase.Entailed 1 -> ()
  | other ->
      Alcotest.failf "expected Entailed 1, got %s"
        (match other with
        | Chase.Entailed k -> "Entailed " ^ string_of_int k
        | Chase.Not_entailed -> "Not_entailed"
        | Chase.Unknown (r, k) ->
            Fmt.str "Unknown (%a, %d)" Budget.pp_resource r k));
  (match Chase.certain ~max_rounds:10 t d (q "? e(X,X).") with
  | Chase.Unknown _ -> () (* infinite chase: budget runs out *)
  | _ -> Alcotest.fail "expected Unknown");
  let t2 = th "p(X) -> exists Y. e(X,Y)." in
  match Chase.certain ~max_rounds:10 t2 (db "p(a).") (q "? e(X,X).") with
  | Chase.Not_entailed -> ()
  | _ -> Alcotest.fail "expected Not_entailed"

let test_certain_depth0 () =
  let t = th "p(X) -> exists Y. e(X,Y)." in
  match Chase.certain t (db "p(a).") (q "? p(X).") with
  | Chase.Entailed 0 -> ()
  | _ -> Alcotest.fail "query true in D itself"

(* ------------------------------------------------------------------ *)
(* Skeleton                                                            *)
(* ------------------------------------------------------------------ *)

let test_skeleton_example1 () =
  let e = Option.get (Zoo.find "ex1") in
  let d = Zoo.database_instance e in
  let r = Chase.run ~max_rounds:12 e.Zoo.theory d in
  let sk = Skeleton.extract e.Zoo.theory r in
  (* no datalog rules: every chase atom is a skeleton atom *)
  check Alcotest.int "no flesh" 0 sk.Skeleton.flesh_count;
  check Alcotest.bool "forest" true (Skeleton.is_forest sk);
  let rep = Skeleton.forest_report sk in
  check Alcotest.bool "acyclic" true rep.Skeleton.acyclic;
  check Alcotest.bool "in-degree <= 1" true rep.Skeleton.in_degree_le_one

let test_skeleton_flesh () =
  (* Example 7: r-atoms are flesh (datalog-derived), e-atoms skeleton *)
  let e = Option.get (Zoo.find "ex7") in
  let d = Zoo.database_instance e in
  let r = Chase.run ~max_rounds:8 e.Zoo.theory d in
  let sk = Skeleton.extract e.Zoo.theory r in
  check Alcotest.bool "some flesh dropped" true (sk.Skeleton.flesh_count > 0);
  check Alcotest.bool "no r-atoms in skeleton" true
    (Instance.facts_with_pred sk.Skeleton.skeleton (Pred.make "r" 2) = []);
  check Alcotest.bool "forest" true (Skeleton.is_forest sk)

let test_skeleton_depths () =
  let t = th "e(X,Y) -> exists Z. e(Y,Z)." in
  let r = Chase.run ~max_rounds:5 t (db "e(a,b).") in
  let sk = Skeleton.extract t r in
  let depth = Skeleton.depths sk in
  let inst = sk.Skeleton.skeleton in
  check Alcotest.int "constants at 0" 0
    depth.(Instance.const inst "a");
  (* the deepest null: 5 rounds -> depth 5 under parent chain from b *)
  let deepest = Array.fold_left max 0 depth in
  check Alcotest.int "chain depth" 5 deepest

let test_skeleton_rebuilds_chase () =
  (* Lemma 4: Chase(S, T) = Chase(D, T); over a finite fixpoint chase the
     skeleton's datalog saturation rebuilds the flesh *)
  let t = th "p(X) -> exists Y. e(X,Y). e(X,Y) -> q(Y)." in
  let d = db "p(a)." in
  let r = Chase.run t d in
  let sk = Skeleton.extract t r in
  let rebuilt = Chase.run t sk.Skeleton.skeleton in
  check Alcotest.bool "no new elements (Lemma 4)" true
    (Instance.num_elements rebuilt.Chase.instance
    = Instance.num_elements r.Chase.instance);
  check Alcotest.bool "same facts" true
    (Instance.equal_facts rebuilt.Chase.instance r.Chase.instance)

(* ------------------------------------------------------------------ *)
(* Termination criteria                                                *)
(* ------------------------------------------------------------------ *)

let test_weak_acyclicity () =
  check Alcotest.bool "terminating" true
    (Termination.weakly_acyclic (th "p(X) -> exists Y. e(X,Y). e(X,Y) -> q(Y)."));
  check Alcotest.bool "self-feeding" false
    (Termination.weakly_acyclic (th "e(X,Y) -> exists Z. e(Y,Z)."));
  check Alcotest.bool "two-step cycle" false
    (Termination.weakly_acyclic
       (th "e(X,Y) -> exists Z. f(Y,Z). f(X,Y) -> exists Z. e(Y,Z)."))

let test_joint_acyclicity () =
  (* JA is strictly more permissive than WA *)
  let wa_not_ja_gap =
    th
      {| p(X) -> exists Y. e(X,Y).
         e(X,Y), q(Y) -> exists Z. e(Y,Z). |}
  in
  (* the second rule's existential feeds position (e,2), but its body
     variable y also needs (q,1), which no existential reaches: JA accepts
     while WA rejects *)
  check Alcotest.bool "WA rejects" false (Termination.weakly_acyclic wa_not_ja_gap);
  check Alcotest.bool "JA accepts" true (Termination.jointly_acyclic wa_not_ja_gap);
  (* sanity: WA implies JA on samples *)
  List.iter
    (fun src ->
      let t = th src in
      if Termination.weakly_acyclic t then
        check Alcotest.bool ("WA => JA: " ^ src) true
          (Termination.jointly_acyclic t))
    [ "p(X) -> exists Y. e(X,Y). e(X,Y) -> q(Y).";
      "p(X) -> exists Y. e(X,Y).";
      "e(X,Y), e(Y,Z) -> e(X,Z)." ]

let test_ja_on_zoo () =
  (* the infinite-chase zoo members are not jointly acyclic *)
  List.iter
    (fun name ->
      let e = Option.get (Zoo.find name) in
      check Alcotest.bool (name ^ " not JA") false
        (Termination.jointly_acyclic e.Zoo.theory))
    [ "ex1"; "ex7"; "sec55"; "linear" ]

(* Resuming a depth-d prefix to depth d' continues the same delta rounds a
   fresh chase to d' runs: the same facts, over the same element ids. *)
let test_resume_matches_fresh () =
  let d = 4 and d' = 9 in
  List.iter
    (fun (e : Zoo.entry) ->
      let db = Zoo.database_instance e in
      let prefix = Chase.run_depth ~depth:d e.Zoo.theory db in
      let resumed =
        Chase.resume ~max_rounds:(d' - d) ~from_round:d e.Zoo.theory
          prefix.Chase.instance
      in
      let fresh = Chase.run_depth ~depth:d' e.Zoo.theory db in
      let r = resumed.Chase.instance and f = fresh.Chase.instance in
      check Alcotest.int (e.Zoo.name ^ ": elements") (Instance.num_elements f)
        (Instance.num_elements r);
      check Alcotest.bool (e.Zoo.name ^ ": facts") true (Instance.equal_facts f r))
    Zoo.all

let suite =
  ( "chase",
    [ tc "fixpoint on weakly acyclic" test_chase_fixpoint;
      tc "restricted reuses witnesses" test_chase_restricted_reuses;
      tc "oblivious always creates" test_chase_oblivious_creates;
      tc "round budget" test_chase_round_budget;
      tc "simultaneous rounds" test_chase_simultaneous_rounds;
      tc "demand dedup (Lemma 3)" test_chase_demand_dedup;
      tc "datalog saturation" test_chase_datalog_only;
      tc "head constants" test_chase_head_constants;
      tc "certain answers" test_certain;
      tc "certain at depth 0" test_certain_depth0;
      tc "skeleton of Example 1" test_skeleton_example1;
      tc "skeleton drops flesh (Example 7)" test_skeleton_flesh;
      tc "skeleton depths" test_skeleton_depths;
      tc "skeleton rebuilds chase (Lemma 4)" test_skeleton_rebuilds_chase;
      tc "weak acyclicity" test_weak_acyclicity;
      tc "joint acyclicity" test_joint_acyclicity;
      tc "zoo not jointly acyclic" test_ja_on_zoo;
      tc "resume continues a prefix like a fresh chase" test_resume_matches_fresh;
    ] )
