(* Unit tests for Bddfc_hom: query evaluation, homomorphisms, containment,
   the pebble game. *)

open Bddfc_logic
open Bddfc_structure
open Bddfc_hom
open Bddfc_workload

let check = Alcotest.check
let tc name f = Alcotest.test_case name `Quick f

let q src = Parser.parse_query src
let atoms src = Parser.parse_atoms src

(* ------------------------------------------------------------------ *)
(* Eval                                                                *)
(* ------------------------------------------------------------------ *)

let test_eval_basic () =
  let inst = Instance.of_atoms (atoms "e(a,b). e(b,c).") in
  check Alcotest.bool "path 2" true (Eval.holds inst (q "? e(X,Y), e(Y,Z)."));
  check Alcotest.bool "no loop" false (Eval.holds inst (q "? e(X,X)."));
  check Alcotest.bool "no path 3" false
    (Eval.holds inst (q "? e(X,Y), e(Y,Z), e(Z,W)."))

let test_eval_constants () =
  let inst = Instance.of_atoms (atoms "e(a,b). e(b,c).") in
  check Alcotest.bool "e(a,X)" true (Eval.holds inst (q "? e(a,X)."));
  check Alcotest.bool "e(c,X)" false (Eval.holds inst (q "? e(c,X)."));
  check Alcotest.bool "unknown const" false (Eval.holds inst (q "? e(zzz,X)."))

let test_eval_repeated_vars () =
  let inst = Instance.of_atoms (atoms "e(a,a). e(a,b).") in
  check Alcotest.bool "diag" true (Eval.holds inst (q "? e(X,X)."));
  let answers = Eval.answers inst (q "?(X) e(X,X).") in
  check Alcotest.int "one diagonal element" 1 (List.length answers)

let test_eval_answers () =
  let inst = Instance.of_atoms (atoms "e(a,b). e(a,c). e(b,c).") in
  let answers = Eval.answers inst (q "?(X,Y) e(X,Y).") in
  check Alcotest.int "three edges" 3 (List.length answers);
  let from_a = Eval.answers inst (q "?(Y) e(a,Y).") in
  check Alcotest.int "two successors of a" 2 (List.length from_a)

let test_eval_answers_distinct () =
  (* duplicate derivations collapse in the answer set *)
  let inst = Instance.of_atoms (atoms "e(a,b). e(a,c).") in
  let answers = Eval.answers inst (q "?(X) e(X,Y).") in
  check Alcotest.int "a occurs once" 1 (List.length answers)

let test_eval_holds_at () =
  let inst = Instance.of_atoms (atoms "e(a,b). e(b,c).") in
  let b = Instance.const inst "b" in
  let a = Instance.const inst "a" in
  let query = q "? e(X,Y)." in
  check Alcotest.bool "b has successor" true (Eval.holds_at inst query "X" b);
  check Alcotest.bool "b has predecessor" true (Eval.holds_at inst query "Y" b);
  check Alcotest.bool "a has no predecessor" false (Eval.holds_at inst query "Y" a)

let test_eval_cross_product () =
  (* disconnected query = cross product *)
  let inst = Instance.of_atoms (atoms "e(a,b). p(c).") in
  check Alcotest.bool "both parts" true (Eval.holds inst (q "? e(X,Y), p(Z)."));
  check Alcotest.bool "missing part" false (Eval.holds inst (q "? e(X,Y), r(Z,W)."))

let test_eval_brute_force_agreement () =
  (* compare the indexed join against naive enumeration on random graphs *)
  let queries =
    [ q "? e(X,Y), e(Y,Z).";
      q "? e(X,Y), e(Y,X).";
      q "? e(X,X).";
      q "? e(X,Y), e(X,Z), e(Y,Z).";
      q "? e(X,Y), e(Z,Y), e(Z,W)." ]
  in
  List.iter
    (fun seed ->
      let inst = Gen.random_digraph ~nodes:6 ~edges:9 ~seed () in
      let elems = Instance.elements inst in
      List.iter
        (fun query ->
          let vars = Cq.SS.elements (Cq.all_vars query) in
          (* naive: try all assignments *)
          let rec assign bound = function
            | [] ->
                List.for_all
                  (fun a ->
                    let ids =
                      List.map
                        (function
                          | Term.Var x -> List.assoc x bound
                          | Term.Cst c -> Option.get (Instance.const_opt inst c))
                        (Atom.args a)
                    in
                    Instance.mem_fact inst
                      (Fact.make (Atom.pred a) (Array.of_list ids)))
                  (Cq.body query)
            | x :: rest ->
                List.exists (fun e -> assign ((x, e) :: bound) rest) elems
          in
          let naive = assign [] vars in
          check Alcotest.bool
            (Printf.sprintf "seed %d: %s" seed (Cq.show query))
            naive (Eval.holds inst query))
        queries)
    [ 1; 2; 3; 4; 5 ]

(* ------------------------------------------------------------------ *)
(* Hom                                                                 *)
(* ------------------------------------------------------------------ *)

let test_hom_chain_to_cycle () =
  let chain = Gen.null_chain ~consts:0 ~len:6 () in
  let cyc =
    (* a 3-cycle of nulls *)
    let inst = Instance.create () in
    let e = Pred.make "e" 2 in
    let ns = Array.init 3 (fun _ -> Instance.fresh_null inst ~birth:0 ~rule:"t" ~parent:None) in
    for i = 0 to 2 do
      ignore (Instance.add_fact inst (Fact.make e [| ns.(i); ns.((i + 1) mod 3) |]))
    done;
    inst
  in
  check Alcotest.bool "chain -> cycle" true (Hom.exists chain cyc);
  check Alcotest.bool "cycle -> chain" false (Hom.exists cyc chain)

let test_hom_respects_constants () =
  let src = Instance.of_atoms (atoms "e(a,b).") in
  let tgt1 = Instance.of_atoms (atoms "e(a,b). e(b,c).") in
  let tgt2 = Instance.of_atoms (atoms "e(b,a).") in
  check Alcotest.bool "identity embed" true (Hom.exists src tgt1);
  check Alcotest.bool "constants rigid" false (Hom.exists src tgt2)

let test_hom_is_homomorphism () =
  let src = Gen.null_chain ~consts:0 ~len:4 () in
  let tgt = Gen.null_chain ~consts:0 ~len:8 () in
  match Hom.find src tgt with
  | None -> Alcotest.fail "expected a homomorphism"
  | Some m -> check Alcotest.bool "verified" true (Hom.is_homomorphism src tgt m)

let test_core_cycle () =
  (* a 3-cycle with a pendant path folds onto the cycle *)
  let inst = Instance.create () in
  let e = Pred.make "e" 2 in
  let ns = Array.init 3 (fun _ -> Instance.fresh_null inst ~birth:0 ~rule:"t" ~parent:None) in
  for i = 0 to 2 do
    ignore (Instance.add_fact inst (Fact.make e [| ns.(i); ns.((i + 1) mod 3) |]))
  done;
  let extra = Instance.fresh_null inst ~birth:0 ~rule:"t" ~parent:None in
  ignore (Instance.add_fact inst (Fact.make e [| extra; ns.(0) |]));
  let core = Hom.core inst in
  check Alcotest.int "core is the 3-cycle" 3 (Instance.num_facts core)

(* ------------------------------------------------------------------ *)
(* Containment                                                         *)
(* ------------------------------------------------------------------ *)

let test_containment_basic () =
  let path2 = q "? e(X,Y), e(Y,Z)." in
  let edge = q "? e(X,Y)." in
  check Alcotest.bool "path2 ⊆ edge" true
    (Containment.subsumes ~general:edge path2);
  check Alcotest.bool "edge ⊄ path2" false
    (Containment.subsumes ~general:path2 edge)

let test_containment_answer_vars () =
  let q1 = q "?(X) e(X,Y), e(Y,Z)." in
  let q2 = q "?(X) e(X,Y)." in
  check Alcotest.bool "with answers" true
    (Containment.subsumes ~general:q2 q1);
  (* answer variable in a different position: not contained *)
  let q3 = q "?(X) e(Y,X)." in
  check Alcotest.bool "different role" false
    (Containment.subsumes ~general:q3 q1)

let test_containment_constants () =
  let qa = q "? e(a,X)." in
  let qany = q "? e(Y,X)." in
  check Alcotest.bool "specific const ⊆ general var" true
    (Containment.subsumes ~general:qany qa);
  check Alcotest.bool "var not ⊆ const" false
    (Containment.subsumes ~general:qa qany)

let test_minimize () =
  let redundant = q "? e(X,Y), e(X2,Y2)." in
  let m = Containment.minimize redundant in
  check Alcotest.int "one atom survives" 1 (Cq.num_atoms m);
  check Alcotest.bool "equivalent" true
    (Containment.subsumes ~general:m redundant
    && Containment.subsumes ~general:redundant m);
  (* a genuine path is not shrunk *)
  let path = q "? e(X,Y), e(Y,Z)." in
  check Alcotest.int "path kept" 2 (Cq.num_atoms (Containment.minimize path))

let test_prune_ucq () =
  let edge = q "? e(X,Y)." in
  let path2 = q "? e(X,Y), e(Y,Z)." in
  let loop = q "? r(X,X)." in
  check Alcotest.bool "path2 absorbed" true
    (Containment.subsumes ~general:edge path2);
  check Alcotest.bool "edge kept" false
    (Containment.subsumes ~general:path2 edge);
  check Alcotest.bool "loop kept" false
    (Containment.subsumes ~general:edge loop)

(* ------------------------------------------------------------------ *)
(* Pebble game                                                         *)
(* ------------------------------------------------------------------ *)

let test_ptypes_chain () =
  (* Example 3: in an uncolored null chain, positive k-types see depth up
     to k - 1 (a path query pinning depth d needs d + 1 variables). *)
  let chain = Gen.null_chain ~consts:0 ~len:10 () in
  (* element ids equal depth here *)
  check Alcotest.bool "interior pair (2 vars)" true
    (Ptypes.equiv ~vars:2 chain 4 5);
  check Alcotest.bool "head differs (no predecessor)" false
    (Ptypes.equiv ~vars:2 chain 0 5);
  check Alcotest.bool "depth 1 vs interior, 2 vars: equal" true
    (Ptypes.equiv ~vars:2 chain 1 5);
  check Alcotest.bool "depth 1 vs interior, 3 vars: differ" false
    (Ptypes.equiv ~vars:3 chain 1 5);
  check Alcotest.bool "depth 2 vs interior, 3 vars: equal" true
    (Ptypes.equiv ~vars:3 chain 2 6)

let test_ptypes_constants_distinct () =
  (* Remark 1: constants have pairwise distinct types at every n >= 1 *)
  let inst = Instance.of_atoms (atoms "e(a,b). e(b,c). e(c,d).") in
  let b = Instance.const inst "b" and c = Instance.const inst "c" in
  check Alcotest.bool "constants have distinct types" false
    (Ptypes.equiv ~vars:1 inst b c)

let test_ptypes_directionality () =
  (* inclusion one way but not the other: chain start vs interior *)
  let chain = Gen.null_chain ~consts:0 ~len:8 () in
  check Alcotest.bool "head <= interior" true
    (Ptypes.ptp_leq ~vars:2 chain (Some 0) chain (Some 3));
  check Alcotest.bool "interior not <= head" false
    (Ptypes.ptp_leq ~vars:2 chain (Some 3) chain (Some 0))

let test_ptypes_untyped () =
  let loop = Instance.create () in
  let n = Instance.fresh_null loop ~birth:0 ~rule:"t" ~parent:None in
  ignore (Instance.add_fact loop (Fact.make (Pred.make "e" 2) [| n; n |]));
  let chain = Gen.null_chain ~consts:0 ~len:5 () in
  check Alcotest.bool "chain queries hold in loop" true
    (Ptypes.ptp_leq ~vars:3 chain None loop None);
  check Alcotest.bool "loop query e(y,y) fails in chain" false
    (Ptypes.ptp_leq ~vars:1 loop None chain None)

let test_ptypes_example2 () =
  (* Example 2 of the paper: ptp2 of an interior chain element agrees with
     a 3-cycle element; ptp4 sees the triangle query. *)
  let chain = Gen.null_chain ~consts:0 ~len:12 () in
  let cyc = Instance.create () in
  let e = Pred.make "e" 2 in
  let ns = Array.init 3 (fun _ -> Instance.fresh_null cyc ~birth:0 ~rule:"t" ~parent:None) in
  for i = 0 to 2 do
    ignore (Instance.add_fact cyc (Fact.make e [| ns.(i); ns.((i + 1) mod 3) |]))
  done;
  check Alcotest.bool "ptp2 equal" true
    (Ptypes.ptp_equal ~vars:2 chain 6 cyc ns.(0));
  check Alcotest.bool "ptp4 differs (triangle query)" false
    (Ptypes.ptp_equal ~vars:4 chain 6 cyc ns.(0))

let test_ptypes_classes () =
  let chain = Gen.null_chain ~consts:0 ~len:8 () in
  let cls, n = Ptypes.classes ~vars:2 chain in
  (* depth 0 (no pred), depths 1..6 (both sides), depth 7 (no succ) *)
  check Alcotest.int "three classes at 2 vars" 3 n;
  check Alcotest.bool "interior merged" true (cls.(2) = cls.(5))

let test_pebble_sound_for_cqs () =
  (* the pebble game preserves more than CQs: game-inclusion implies
     CQ-type inclusion on samples *)
  let insts =
    [ Gen.null_chain ~consts:0 ~len:6 ();
      Gen.random_digraph ~nodes:5 ~edges:7 ~seed:3 () ]
  in
  List.iter
    (fun inst ->
      let elems = Instance.elements inst in
      List.iter
        (fun d ->
          List.iter
            (fun e ->
              if Pebble.ptp_leq ~vars:2 inst (Some d) inst (Some e) then
                check Alcotest.bool "game => CQ inclusion" true
                  (Ptypes.ptp_leq ~vars:2 inst (Some d) inst (Some e)))
            elems)
        elems)
    insts

let test_pebble_loop_vs_chain () =
  let loop = Instance.create () in
  let n = Instance.fresh_null loop ~birth:0 ~rule:"t" ~parent:None in
  ignore (Instance.add_fact loop (Fact.make (Pred.make "e" 2) [| n; n |]));
  let chain = Gen.null_chain ~consts:0 ~len:5 () in
  (* Duplicator answers everything with the loop node *)
  check Alcotest.bool "chain -> loop: duplicator wins" true
    (Pebble.ptp_leq ~vars:2 chain None loop None);
  check Alcotest.bool "loop -> chain: spoiler wins" false
    (Pebble.ptp_leq ~vars:1 loop None chain None)

let suite =
  ( "hom",
    [ tc "eval basic" test_eval_basic;
      tc "eval constants" test_eval_constants;
      tc "eval repeated vars" test_eval_repeated_vars;
      tc "eval answers" test_eval_answers;
      tc "eval distinct answers" test_eval_answers_distinct;
      tc "eval holds_at" test_eval_holds_at;
      tc "eval cross product" test_eval_cross_product;
      tc "eval vs brute force" test_eval_brute_force_agreement;
      tc "hom chain to cycle" test_hom_chain_to_cycle;
      tc "hom constants rigid" test_hom_respects_constants;
      tc "hom verified" test_hom_is_homomorphism;
      tc "core of looped path" test_core_cycle;
      tc "containment basic" test_containment_basic;
      tc "containment answers" test_containment_answer_vars;
      tc "containment constants" test_containment_constants;
      tc "minimize" test_minimize;
      tc "prune ucq" test_prune_ucq;
      tc "ptypes chain (Example 3)" test_ptypes_chain;
      tc "ptypes constants (Remark 1)" test_ptypes_constants_distinct;
      tc "ptypes one-way inclusion" test_ptypes_directionality;
      tc "ptypes untyped" test_ptypes_untyped;
      tc "ptypes Example 2" test_ptypes_example2;
      tc "ptypes classes" test_ptypes_classes;
      tc "pebble game is sound for CQs" test_pebble_sound_for_cqs;
      tc "pebble loop vs chain" test_pebble_loop_vs_chain;
    ] )
