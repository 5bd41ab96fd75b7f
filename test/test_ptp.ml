(* Unit tests for Bddfc_ptp: refinement, quotients, colorings, VTDAGs,
   conservativity — the Section 2 and 4 machinery. *)

open Bddfc_logic
open Bddfc_structure
open Bddfc_hom
open Bddfc_ptp
open Bddfc_workload

let check = Alcotest.check
let tc name f = Alcotest.test_case name `Quick f

let q src = Parser.parse_query src

(* ------------------------------------------------------------------ *)
(* Refine                                                              *)
(* ------------------------------------------------------------------ *)

let test_refine_chain_depths () =
  let chain = Gen.null_chain ~consts:0 ~len:12 () in
  let g = Bgraph.make chain in
  (* depth-k backward refinement distinguishes the first k depths *)
  let r = Refine.compute ~mode:Refine.Backward ~depth:3 g in
  check Alcotest.bool "0 vs 1 differ" false (Refine.equivalent r 0 1);
  check Alcotest.bool "2 vs 3 differ" false (Refine.equivalent r 2 3);
  check Alcotest.bool "3 vs 4 equal" true (Refine.equivalent r 3 4);
  check Alcotest.bool "deep pair equal" true (Refine.equivalent r 7 8)

let test_refine_modes () =
  let chain = Gen.null_chain ~consts:0 ~len:12 () in
  let g = Bgraph.make chain in
  let b = Refine.compute ~mode:Refine.Bidirectional ~depth:3 g in
  check Alcotest.bool "bidirectional refines both" false (Refine.equivalent b 0 1);
  check Alcotest.bool "middle equal" true (Refine.equivalent b 5 6)

let test_refine_constants_singleton () =
  let chain = Gen.null_chain ~consts:2 ~len:8 () in
  let g = Bgraph.make chain in
  let r = Refine.compute ~mode:Refine.Backward ~depth:1 g in
  (* the two constants are alone in their classes *)
  let cls = Refine.classes r in
  List.iter
    (fun (_, members) ->
      if List.exists (Instance.is_const chain) members then
        check Alcotest.int "constant class is singleton" 1 (List.length members))
    cls

let test_refine_monotone_in_depth () =
  let inst = Gen.random_digraph ~nodes:14 ~edges:20 ~seed:7 () in
  let g = Bgraph.make inst in
  let counts =
    List.map
      (fun d -> Refine.num_classes (Refine.compute ~depth:d g))
      [ 0; 1; 2; 3; 4 ]
  in
  let rec non_decreasing = function
    | a :: (b :: _ as rest) -> a <= b && non_decreasing rest
    | _ -> true
  in
  check Alcotest.bool "classes only refine" true (non_decreasing counts)

let test_refine_agrees_with_exact_on_chain () =
  (* on uncolored chains, backward+forward refinement at depth k-1 gives
     the same partition as exact k-variable types *)
  let chain = Gen.null_chain ~consts:0 ~len:9 () in
  let g = Bgraph.make chain in
  let r = Refine.compute ~mode:Refine.Bidirectional ~depth:1 g in
  let exact, n_exact = Ptypes.classes ~vars:2 chain in
  check Alcotest.int "same class count" n_exact (Refine.num_classes r);
  let agree =
    List.for_all
      (fun d ->
        List.for_all
          (fun e -> Refine.equivalent r d e = (exact.(d) = exact.(e)))
          (Instance.elements chain))
      (Instance.elements chain)
  in
  check Alcotest.bool "same partition" true agree

(* ------------------------------------------------------------------ *)
(* Quotient                                                            *)
(* ------------------------------------------------------------------ *)

let test_quotient_example3 () =
  (* Example 3: the uncolored quotient of a chain has a self-loop *)
  let chain = Gen.null_chain ~consts:0 ~len:12 () in
  let g = Bgraph.make chain in
  let r = Refine.compute ~mode:Refine.Backward ~depth:4 g in
  let qt = Quotient.of_refinement chain r in
  check Alcotest.int "n+1 classes" 5 (Instance.num_elements qt.Quotient.quotient);
  check Alcotest.bool "self-loop appears" true
    (Eval.holds qt.Quotient.quotient (q "? e(X,X).")) ;
  check Alcotest.bool "original has no loop" false (Eval.holds chain (q "? e(X,X)."))

let test_quotient_projection_is_hom () =
  (* Definition 5 / Lemma 1: q_n is a homomorphism *)
  let inst = Gen.random_digraph ~nodes:10 ~edges:18 ~seed:11 () in
  let g = Bgraph.make inst in
  let r = Refine.compute ~depth:2 g in
  let qt = Quotient.of_refinement inst r in
  Instance.iter_facts
    (fun f ->
      let projected =
        Fact.make (Fact.pred f) (Array.map (Quotient.project qt) (Fact.args f))
      in
      check Alcotest.bool "projected fact present" true
        (Instance.mem_fact qt.Quotient.quotient projected))
    inst

let test_quotient_minimality () =
  (* relations are minimal: every quotient fact has a preimage *)
  let inst = Gen.null_chain ~consts:1 ~len:8 () in
  let g = Bgraph.make inst in
  let r = Refine.compute ~mode:Refine.Backward ~depth:2 g in
  let qt = Quotient.of_refinement inst r in
  Instance.iter_facts
    (fun f ->
      let has_preimage =
        List.exists
          (fun src_fact ->
            Pred.equal (Fact.pred src_fact) (Fact.pred f)
            && Array.for_all2
                 (fun src img -> Quotient.project qt src = img)
                 (Fact.args src_fact) (Fact.args f))
          (Instance.facts inst)
      in
      check Alcotest.bool "fact has a preimage" true has_preimage)
    qt.Quotient.quotient

let test_quotient_constants_kept () =
  let inst = Instance.of_atoms (Parser.parse_atoms "e(a,b). e(b,c).") in
  let g = Bgraph.make inst in
  let r = Refine.compute ~depth:1 g in
  let qt = Quotient.of_refinement inst r in
  check Alcotest.int "three constants stay" 3
    (Instance.num_elements qt.Quotient.quotient);
  check Alcotest.bool "named" true
    (Instance.const_opt qt.Quotient.quotient "b" <> None)

(* ------------------------------------------------------------------ *)
(* Coloring                                                            *)
(* ------------------------------------------------------------------ *)

let test_natural_coloring_chain () =
  let chain = Gen.null_chain ~consts:1 ~len:15 () in
  let col = Coloring.natural ~m:2 chain in
  check Alcotest.int "no violations" 0
    (List.length (Coloring.check_natural ~m:2 chain col));
  (* hue count: P_2 conflicts need 4 hues on a chain *)
  check Alcotest.bool "bounded hues" true (col.Coloring.num_hues <= 4)

let test_natural_coloring_tree () =
  let tree = Gen.binary_tree ~depth:4 () in
  let col = Coloring.natural ~m:2 tree in
  check Alcotest.int "no violations on tree" 0
    (List.length (Coloring.check_natural ~m:2 tree col))

let test_coloring_is_coloring () =
  (* Definition 7: exactly one color per element, base facts untouched *)
  let chain = Gen.null_chain ~consts:1 ~len:10 () in
  let col = Coloring.natural ~m:3 chain in
  let colored = col.Coloring.colored in
  let color_preds = Coloring.color_preds colored in
  List.iter
    (fun e ->
      let colors =
        Pred.Set.fold
          (fun p acc ->
            acc + List.length (Instance.facts_with_arg colored p 0 e))
          color_preds 0
      in
      check Alcotest.int "exactly one color" 1 colors)
    (Instance.elements colored);
  check Alcotest.bool "uncolor restores" true
    (Instance.equal_facts (Coloring.uncolor colored) chain)

let test_example4_quotient_cycle () =
  (* Example 4: colored chain quotient is a chain followed by a cycle
     whose length equals the hue period *)
  let chain = Gen.null_chain ~consts:1 ~len:30 () in
  let col = Coloring.natural ~m:2 chain in
  let g = Bgraph.make col.Coloring.colored in
  let r = Refine.compute ~mode:Refine.Backward ~depth:6 g in
  let qt = Quotient.of_refinement col.Coloring.colored r in
  let base = Coloring.uncolor qt.Quotient.quotient in
  check Alcotest.bool "no self loop" false (Eval.holds base (q "? e(X,X)."));
  check Alcotest.bool "no short cycle (2)" false
    (Eval.holds base (q "? e(X,Y), e(Y,X)."));
  check Alcotest.bool "no short cycle (3)" false
    (Eval.holds base (q "? e(X,Y), e(Y,Z), e(Z,X)."));
  (* a cycle of the hue period exists *)
  check Alcotest.bool "period-4 cycle" true
    (Eval.holds base (q "? e(X,Y), e(Y,Z), e(Z,W), e(W,X)."));
  check Alcotest.bool "smaller than the chain" true
    (Instance.num_elements base < 31)

let test_distance_coloring () =
  let inst = Gen.random_digraph ~nodes:12 ~edges:16 ~seed:5 () in
  let col = Coloring.distance ~radius:2 inst in
  (* within radius 2, all hues pairwise distinct *)
  let g = Bgraph.make inst in
  List.iter
    (fun e ->
      Element.Id_set.iter
        (fun d ->
          if d <> e then
            check Alcotest.bool "distinct in ball" true
              (col.Coloring.hue.(e) <> col.Coloring.hue.(d)))
        (Element.Id_set.remove e (Bgraph.ball g e 2)))
    (Instance.elements inst)

(* Two elements with non-isomorphic neighbourhoods painted the same
   color: y1 has a unary fact its twin y2 lacks. *)
let test_check_natural_reports_clash () =
  let inst = Instance.create () in
  let e = Pred.make "e" 2 and p = Pred.make "p" 1 in
  let null () = Instance.fresh_null inst ~birth:0 ~rule:"t" ~parent:None in
  let x1 = null () and y1 = null () and x2 = null () and y2 = null () in
  List.iter
    (fun f -> ignore (Instance.add_fact inst f))
    [ Fact.make e [| x1; y1 |]; Fact.make e [| x2; y2 |]; Fact.make p [| y1 |] ];
  let hue = [| 1; 0; 1; 0 |] and lightness = [| 0; 1; 0; 1 |] in
  let col = Coloring.materialize inst hue lightness in
  check Alcotest.bool "clash reported" true
    (Coloring.check_natural ~m:1 inst col
    = [ Coloring.Lightness_clash (y1, y2) ]);
  (* once the twins agree, the same coloring is natural *)
  ignore (Instance.add_fact inst (Fact.make p [| y2 |]));
  let col = Coloring.materialize inst hue lightness in
  check Alcotest.int "no violations once isomorphic" 0
    (List.length (Coloring.check_natural ~m:1 inst col))

(* Element-order interning of a keying: two keyings give equal arrays iff
   they induce the same partition (key e1 = key e2 iff key' e1 = key' e2,
   for every pair) — the numbering the natural coloring assigns. *)
let interned keys =
  let ids = Hashtbl.create 64 in
  Array.map
    (fun k ->
      match Hashtbl.find_opt ids k with
      | Some id -> id
      | None ->
          let id = Hashtbl.length ids in
          Hashtbl.replace ids k id;
          id)
    keys

(* The hue assignment as the natural coloring made it before its integer
   rewrite: Bgraph's topological order and P_m sets, and the smallest hue
   no conflict holds found by list membership.  Nulls with a directed
   cycle have no topological order; there every element has its own
   hue. *)
let reference_hue ~m inst =
  let g = Bgraph.make inst in
  let n = Instance.num_elements inst in
  match Bgraph.topo_order g with
  | None -> Array.init (max n 1) Fun.id
  | Some topo ->
      let hue = Array.make (max n 1) 0 in
      List.iter
        (fun e ->
          let conflicts = Element.Id_set.remove e (Bgraph.pred_set_k g m e) in
          let used =
            Element.Id_set.fold (fun d acc -> hue.(d) :: acc) conflicts []
          in
          let rec smallest h = if List.mem h used then smallest (h + 1) else h in
          hue.(e) <- smallest 0)
        (List.filter (Instance.is_const inst) (Instance.elements inst) @ topo);
      hue

(* The lightness forms and the string keys must partition the elements
   exactly as the permutation oracle's keys do, the natural coloring's
   lightness array must be the oracle's interning, and its hues those of
   the reference greedy. *)
let agrees_with_scan_oracle what inst =
  let oracle = interned (Scan_key.keys inst) in
  check Alcotest.(array int) (what ^ ": keys") oracle
    (interned (Coloring.neighbourhood_keys inst));
  let g = Bgraph.make inst in
  check Alcotest.(array int) (what ^ ": Canonical.key") oracle
    (interned
       (Array.init (Instance.num_elements inst) (fun e ->
            Canonical.key ~root:e inst (Scan_key.neighbourhood inst g e))));
  let col = Coloring.natural ~m:2 inst in
  check Alcotest.(array int) (what ^ ": lightness") oracle
    col.Coloring.lightness;
  check Alcotest.(array int) (what ^ ": hue") (reference_hue ~m:2 inst)
    col.Coloring.hue;
  check Alcotest.int (what ^ ": natural") 0
    (List.length (Coloring.check_natural ~m:2 inst col))

let zoo_skeletons =
  [ ("ex1", 8); ("ex7", 10); ("ex9", 16); ("sec54", 6); ("guarded_ternary", 8) ]

let zoo_skeleton name depth =
  let z = Option.get (Zoo.find name) in
  let chase =
    Bddfc_chase.Chase.run ~max_rounds:depth ~max_elements:3000 z.Zoo.theory
      (Zoo.database_instance z)
  in
  (Bddfc_chase.Skeleton.extract z.Zoo.theory chase).Bddfc_chase.Skeleton.skeleton

let test_keys_zoo_skeletons () =
  List.iter
    (fun (name, depth) -> agrees_with_scan_oracle name (zoo_skeleton name depth))
    zoo_skeletons

(* A chase prefix of a random theory, salted with the fact shapes the
   incidence pass must handle: 0-ary facts, repeated-null facts, ternary
   and 4-ary facts inside neighbourhoods, constant-only facts, and extra
   null edges that give P(e) several free elements. *)
let salted_instance seed =
  let chase =
    Bddfc_chase.Chase.run ~max_rounds:4 ~max_elements:60
      (Gen.random_binary_theory ~seed ()) (Gen.random_instance ~seed ())
  in
  let inst = chase.Bddfc_chase.Chase.instance in
  let st = Random.State.make [| seed; 4242 |] in
  let add p args = ignore (Instance.add_fact inst (Fact.make p args)) in
  let pick a = a.(Random.State.int st (Array.length a)) in
  let a = Instance.const inst "a" and b = Instance.const inst "b" in
  let elts = Array.of_list (Instance.elements inst) in
  for _ = 1 to 3 do
    let parent = pick elts in
    let n = Instance.fresh_null inst ~birth:9 ~rule:"salt" ~parent:(Some parent) in
    add (Pred.make "e" 2) [| parent; n |]
  done;
  let nulls =
    Array.of_list (List.filter (Instance.is_null inst) (Instance.elements inst))
  in
  let consts = [| a; b |] in
  let p0 = Pred.make "z" 0 and t3 = Pred.make "t" 3 and w4 = Pred.make "w" 4 in
  if Random.State.bool st then add p0 [||];
  add (Pred.make "e" 2) [| pick nulls; pick nulls |];
  let x = pick nulls in
  add (Pred.make "e" 2) [| x; x |];
  add (Pred.make "e" 2) [| a; b |];
  add (Pred.make "q" 1) [| pick consts |];
  add t3 [| a; a; b |];
  let binaries =
    Array.of_list
      (List.filter (fun f -> Fact.arity f = 2) (Instance.facts inst))
  in
  for _ = 1 to 3 do
    let f = pick binaries in
    let x = (Fact.args f).(0) and y = (Fact.args f).(1) in
    add t3 [| x; y; pick consts |];
    add t3 [| y; x; y |];
    add w4 [| x; y; x; pick consts |]
  done;
  inst

(* Every salted instance has a directed cycle among its nulls (the
   repeated-null edge is a self-loop), where each element gets its own
   hue.  The skeletons of the same random chases are nearly all
   acyclic, so they compare the greedy hue walk with the reference. *)
let random_skeleton seed =
  let theory = Gen.random_binary_theory ~seed () in
  let chase =
    Bddfc_chase.Chase.run ~max_rounds:4 ~max_elements:60 theory
      (Gen.random_instance ~seed ())
  in
  (Bddfc_chase.Skeleton.extract theory chase).Bddfc_chase.Skeleton.skeleton

let test_keys_random_instances () =
  let acyclic = ref 0 in
  for seed = 0 to 119 do
    agrees_with_scan_oracle (Printf.sprintf "seed %d" seed) (salted_instance seed);
    let sk = random_skeleton seed in
    if Bgraph.topo_order (Bgraph.make sk) <> None then incr acyclic;
    agrees_with_scan_oracle (Printf.sprintf "seed %d skeleton" seed) sk
  done;
  check Alcotest.bool "most skeletons are acyclic (119 of 120)" true
    (!acyclic >= 100)

(* A null with many children: each child's neighbourhood holds one edge,
   so the keys examine O(facts) facts, not the hub's degree per child. *)
let test_keys_linear_at_hubs () =
  let inst = Instance.create () in
  let e = Pred.make "e" 2 in
  let hub = Instance.fresh_null inst ~birth:0 ~rule:"t" ~parent:None in
  for _ = 1 to 400 do
    let c = Instance.fresh_null inst ~birth:1 ~rule:"t" ~parent:(Some hub) in
    ignore (Instance.add_fact inst (Fact.make e [| hub; c |]))
  done;
  let counter = Bddfc_obs.Obs.Metrics.counter "coloring.facts_visited" in
  let before = Bddfc_obs.Obs.Metrics.value counter in
  ignore (Coloring.natural ~m:1 inst);
  let visited = Bddfc_obs.Obs.Metrics.value counter - before in
  check Alcotest.int "one filing pass plus one edge per child" 800 visited;
  (* a sink with 40 null predecessors colors: its 40 edges are filed under
     it, so its key scans them plus each predecessor's one edge, and the
     count stays linear — the filing pass over 440 facts, one edge per
     child, 80 for the sink *)
  let sink = Instance.fresh_null inst ~birth:2 ~rule:"t" ~parent:None in
  for c = 1 to 40 do
    ignore (Instance.add_fact inst (Fact.make e [| c; sink |]))
  done;
  let before = Bddfc_obs.Obs.Metrics.value counter in
  let col = Coloring.natural ~m:1 inst in
  let visited = Bddfc_obs.Obs.Metrics.value counter - before in
  check Alcotest.int "filing pass, one edge per child, 80 at the sink" 920
    visited;
  check Alcotest.bool "the sink's lightness is its own" true
    (col.Coloring.lightness.(sink) <> col.Coloring.lightness.(1));
  check Alcotest.int "natural" 0
    (List.length (Coloring.check_natural ~m:1 inst col))

(* A wide signature (|Sigma| = 12) and 11-null neighbourhoods, past the
   old permutation key's 8-element cap.  The neighbourhood mixes three
   interchangeable s-edges (symmetric but not twins, so the key
   branches), twins and rigid members.  A copy whose nulls are created in
   another order, with the root older than its predecessors, gets the
   same lightness; a copy with one s-edge dropped gets a different
   one. *)
let test_keys_wide_signature () =
  let inst = Instance.create () in
  let r i = Pred.make (Printf.sprintf "r%d" i) 2 in
  let u i = Pred.make (Printf.sprintf "u%d" i) 1 in
  let s = Pred.make "s" 2 in
  let null () = Instance.fresh_null inst ~birth:0 ~rule:"t" ~parent:None in
  let add p args = ignore (Instance.add_fact inst (Fact.make p args)) in
  (* [build ~root_first ~perm ~drop]: x_i is xs.(perm i) *)
  let build ~root_first ~perm ~drop =
    let root = if root_first then null () else -1 in
    let xs = Array.init 11 (fun _ -> null ()) in
    let root = if root_first then root else null () in
    let x i = xs.(perm i) in
    for i = 0 to 5 do
      add (r 0) [| x i; root |];
      if i mod 2 = 0 && not (drop && i = 4) then add s [| x i; x (i + 1) |]
    done;
    add (r 1) [| x 6; root |];
    add (r 1) [| x 7; root |];
    add (r 2) [| x 8; root |];
    add (u 0) [| x 8 |];
    add (r 3) [| x 9; root |];
    add (u 1) [| x 9 |];
    add (u 2) [| x 9 |];
    add (r 4) [| x 10; root |];
    add (r 5) [| x 10; x 8 |];
    add (u 3) [| x 10 |];
    add (u 4) [| x 10 |];
    root
  in
  let e1 = build ~root_first:false ~perm:Fun.id ~drop:false in
  let e2 =
    build ~root_first:true ~perm:(fun i -> ((i * 7) + 3) mod 11) ~drop:false
  in
  let e3 = build ~root_first:false ~perm:Fun.id ~drop:true in
  check Alcotest.int "|Sigma| = 12" 12 (Pred.Set.cardinal (Instance.preds inst));
  let g = Bgraph.make inst in
  check Alcotest.int "11 nulls besides the root" 12
    (Element.Id_set.cardinal (Bgraph.pred_set g e1));
  let col = Coloring.natural ~m:1 inst in
  let l = col.Coloring.lightness in
  check Alcotest.bool "relabelled copy: same lightness" true (l.(e1) = l.(e2));
  check Alcotest.bool "one fact dropped: other lightness" true (l.(e1) <> l.(e3));
  check Alcotest.int "natural" 0
    (List.length (Coloring.check_natural ~m:1 inst col));
  let key e =
    Canonical.key ~root:e inst (Element.Id_set.elements (Bgraph.pred_set g e))
  in
  check Alcotest.string "Canonical.key: relabelled copy" (key e1) (key e2);
  check Alcotest.bool "Canonical.key: dropped fact" false (key e1 = key e3)

(* Canonical.key against the permutation oracle on small structures,
   pooled across instances (constants match by name).  Each structure is
   realized twice, the second time with its nulls created and its facts
   added in shuffled orders.  The pool holds random structures, half of
   them doubled into two disjoint copies (symmetric, with twins), and
   unions of directed e-cycles of the same size: colour refinement cannot
   split those, so the key must branch, and a cell can mix elements of
   different orbits (a 4-cycle plus a 2-cycle). *)
let test_canonical_random () =
  let st = Random.State.make [| 2024 |] in
  let preds =
    [| Pred.make "e" 2; Pred.make "f" 2; Pred.make "p" 1; Pred.make "t" 3 |]
  in
  let shuffle l =
    List.map snd
      (List.sort compare (List.map (fun x -> (Random.State.bits st, x)) l))
  in
  let random_shape () =
    let nulls = 1 + Random.State.int st 3 in
    let consts = Random.State.int st 3 in
    let elt () =
      let i = Random.State.int st (nulls + consts) in
      if i < nulls then `Null i else `Const (String.make 1 "abc".[i - nulls])
    in
    let facts =
      List.init
        (2 + Random.State.int st 5)
        (fun _ ->
          let p = preds.(Random.State.int st (Array.length preds)) in
          (p, Array.init (Pred.arity p) (fun _ -> elt ())))
    in
    if Random.State.bool st then
      let shift = function `Null i -> `Null (i + nulls) | c -> c in
      (2 * nulls, facts @ List.map (fun (p, a) -> (p, Array.map shift a)) facts)
    else (nulls, facts)
  in
  let cycles lengths =
    let facts, n =
      List.fold_left
        (fun (acc, base) len ->
          ( acc
            @ List.init len (fun i ->
                  (preds.(0), [| `Null (base + i); `Null (base + ((i + 1) mod len)) |])),
            base + len ))
        ([], 0) lengths
    in
    (n, facts)
  in
  let realize (n, facts) ~shuffled =
    let inst = Instance.create () in
    let ids = Array.make n 0 in
    let order = List.init n Fun.id in
    List.iter
      (fun i ->
        ids.(i) <- Instance.fresh_null inst ~birth:0 ~rule:"t" ~parent:None)
      (if shuffled then shuffle order else order);
    List.iter
      (fun (p, args) ->
        let arg = function
          | `Null i -> ids.(i)
          | `Const c -> Instance.const inst c
        in
        ignore (Instance.add_fact inst (Fact.make p (Array.map arg args))))
      (if shuffled then shuffle facts else facts);
    (inst, ids.(0))
  in
  let shapes =
    List.init 300 (fun _ -> random_shape ())
    @ List.map cycles
        [ [ 6 ]; [ 4; 2 ]; [ 2; 4 ]; [ 3; 3 ]; [ 2; 2; 2 ]; [ 2; 2; 2; 2 ]; [ 5 ];
          [ 3; 2 ] ]
  in
  let pool =
    List.concat_map
      (fun sh ->
        List.concat_map
          (fun shuffled ->
            let inst, root = realize sh ~shuffled in
            let elts = Instance.elements inst in
            [ (Canonical.key inst elts, Scan_key.key inst elts);
              (Canonical.key ~root inst elts, Scan_key.key ~root inst elts) ])
          [ false; true; true ])
      shapes
    |> Array.of_list
  in
  check Alcotest.(array int) "same partition as the oracle"
    (interned (Array.map snd pool))
    (interned (Array.map fst pool))

(* A root whose 18 predecessors form 9 disjoint s-pairs: refinement
   leaves the 9 sources in one cell, no two of them are twins, and 9!
   leaves would follow without the automorphisms the search collects.
   The key must come back at once, equal for a copy built in another
   order and different for a copy with one pair linked both ways. *)
let test_keys_symmetric_pairs () =
  let inst = Instance.create () in
  let r = Pred.make "r" 2 and s = Pred.make "s" 2 in
  let null () = Instance.fresh_null inst ~birth:0 ~rule:"t" ~parent:None in
  let add p args = ignore (Instance.add_fact inst (Fact.make p args)) in
  let build ~perm ~both =
    let xs = Array.init 18 (fun _ -> null ()) in
    let root = null () in
    let x i = xs.(perm i) in
    for i = 0 to 17 do
      add r [| x i; root |]
    done;
    for k = 0 to 8 do
      add s [| x (2 * k); x ((2 * k) + 1) |];
      if both && k = 8 then add s [| x ((2 * k) + 1); x (2 * k) |]
    done;
    root
  in
  let e1 = build ~perm:Fun.id ~both:false in
  let e2 = build ~perm:(fun i -> ((i * 5) + 7) mod 18) ~both:false in
  let e3 = build ~perm:Fun.id ~both:true in
  let col = Coloring.natural ~m:1 inst in
  let l = col.Coloring.lightness in
  check Alcotest.bool "relabelled copy: same lightness" true (l.(e1) = l.(e2));
  check Alcotest.bool "one pair linked both ways: other lightness" true
    (l.(e1) <> l.(e3))

(* Refine.compute against the string-keyed reference: identical class
   arrays, counts and trips in every mode at depths 0-4, plus a run that
   a 2-step budget cuts at depth 4. *)
let refine_agrees_with_reference what inst =
  let g = Bgraph.make inst in
  let same label (r : Refine.t) (cls, num, tripped) =
    check Alcotest.(array int) (label ^ ": cls") cls r.Refine.cls;
    check Alcotest.int (label ^ ": num_classes") num r.Refine.num_classes;
    check Alcotest.bool (label ^ ": tripped") true (tripped = r.Refine.tripped)
  in
  List.iter
    (fun (mname, mode) ->
      for depth = 0 to 4 do
        same
          (Printf.sprintf "%s %s depth %d" what mname depth)
          (Refine.compute ~mode ~depth g)
          (Reference_refine.compute ~mode ~depth g)
      done;
      let budget () = Bddfc_budget.Budget.v ~refine_steps:2 () in
      same
        (Printf.sprintf "%s %s budget" what mname)
        (Refine.compute ~mode ~budget:(budget ()) ~depth:4 g)
        (Reference_refine.compute ~mode ~budget:(budget ()) ~depth:4 g))
    [ ("backward", Refine.Backward); ("bidirectional", Refine.Bidirectional) ]

let test_refine_reference () =
  List.iter
    (fun (name, depth) ->
      let sk = zoo_skeleton name depth in
      refine_agrees_with_reference name (Coloring.natural ~m:2 sk).Coloring.colored)
    zoo_skeletons;
  for seed = 0 to 119 do
    let inst = salted_instance seed in
    let what = Printf.sprintf "seed %d" seed in
    refine_agrees_with_reference what inst;
    refine_agrees_with_reference (what ^ " colored")
      (Coloring.natural ~m:2 inst).Coloring.colored
  done

(* ------------------------------------------------------------------ *)
(* Vtdag                                                               *)
(* ------------------------------------------------------------------ *)

let test_vtdag_chain_tree () =
  check Alcotest.bool "chain" true (Vtdag.is_vtdag (Gen.null_chain ~len:8 ()));
  check Alcotest.bool "tree" true (Vtdag.is_vtdag (Gen.binary_tree ~depth:3 ()));
  check Alcotest.bool "forest test agrees" true
    (Vtdag.is_forest (Gen.binary_tree ~depth:3 ()))

let test_vtdag_violations () =
  (* two non-constant e-predecessors *)
  let inst = Instance.create () in
  let e = Pred.make "e" 2 in
  let n1 = Instance.fresh_null inst ~birth:0 ~rule:"t" ~parent:None in
  let n2 = Instance.fresh_null inst ~birth:0 ~rule:"t" ~parent:None in
  let n3 = Instance.fresh_null inst ~birth:0 ~rule:"t" ~parent:None in
  ignore (Instance.add_fact inst (Fact.make e [| n1; n3 |]));
  ignore (Instance.add_fact inst (Fact.make e [| n2; n3 |]));
  check Alcotest.bool "multi-predecessor rejected" false (Vtdag.is_vtdag inst);
  (* ... but two predecessors via different relations with a clique is fine *)
  let inst2 = Instance.create () in
  let f = Pred.make "f" 2 in
  let m1 = Instance.fresh_null inst2 ~birth:0 ~rule:"t" ~parent:None in
  let m2 = Instance.fresh_null inst2 ~birth:0 ~rule:"t" ~parent:None in
  let m3 = Instance.fresh_null inst2 ~birth:0 ~rule:"t" ~parent:None in
  ignore (Instance.add_fact inst2 (Fact.make e [| m1; m3 |]));
  ignore (Instance.add_fact inst2 (Fact.make f [| m2; m3 |]));
  ignore (Instance.add_fact inst2 (Fact.make e [| m1; m2 |]));
  check Alcotest.bool "clique predecessors accepted" true (Vtdag.is_vtdag inst2);
  (* without the clique edge it is rejected *)
  let inst3 = Instance.create () in
  let k1 = Instance.fresh_null inst3 ~birth:0 ~rule:"t" ~parent:None in
  let k2 = Instance.fresh_null inst3 ~birth:0 ~rule:"t" ~parent:None in
  let k3 = Instance.fresh_null inst3 ~birth:0 ~rule:"t" ~parent:None in
  ignore (Instance.add_fact inst3 (Fact.make e [| k1; k3 |]));
  ignore (Instance.add_fact inst3 (Fact.make f [| k2; k3 |]));
  check Alcotest.bool "non-clique rejected" false (Vtdag.is_vtdag inst3)

let test_vtdag_cycle () =
  let inst = Instance.create () in
  let e = Pred.make "e" 2 in
  let n1 = Instance.fresh_null inst ~birth:0 ~rule:"t" ~parent:None in
  let n2 = Instance.fresh_null inst ~birth:0 ~rule:"t" ~parent:None in
  ignore (Instance.add_fact inst (Fact.make e [| n1; n2 |]));
  ignore (Instance.add_fact inst (Fact.make e [| n2; n1 |]));
  check Alcotest.bool "cyclic rejected" false (Vtdag.is_vtdag inst)

(* ------------------------------------------------------------------ *)
(* Conservative                                                        *)
(* ------------------------------------------------------------------ *)

let test_conservative_chain () =
  (* Lemma 2 in miniature: a colored chain is n-conservative up to m *)
  let chain = Gen.null_chain ~consts:1 ~len:9 () in
  let col = Coloring.natural ~m:2 chain in
  match Conservative.find_conservative_n ~m:2 ~max_n:5 chain col with
  | Some _ -> ()
  | None -> Alcotest.fail "expected a conservative n for the colored chain"

let test_not_conservative_uncolored () =
  (* Example 3: without colors the chain quotient is never conservative
     even up to size 1 at small n (the self-loop query appears) *)
  let chain = Gen.null_chain ~consts:0 ~len:9 () in
  let trivial =
    Coloring.materialize chain
      (Array.make (Instance.num_elements chain) 0)
      (Array.make (Instance.num_elements chain) 0)
  in
  let c = Conservative.check_exact ~m:2 ~n:2 chain trivial in
  check Alcotest.bool "uncolored chain gains queries" false c.Conservative.conservative;
  check Alcotest.bool "failures are gains" true
    (List.for_all (fun (_, d) -> d = `Gained) c.Conservative.failures)

let test_conservative_frontier () =
  (* Example 4's boundary: a coloring for m is n-conservative up to m but
     not necessarily up to m+2 (the quotient cycle becomes visible) *)
  let chain = Gen.null_chain ~consts:1 ~len:12 () in
  let col = Coloring.natural ~m:1 chain in
  let n = Conservative.find_conservative_n ~m:1 ~max_n:4 chain col in
  check Alcotest.bool "conservative at m=1" true (n <> None);
  (* the hue period is ~3, so a cycle query with few variables exists *)
  let big = Conservative.check_exact ~m:5 ~n:3 chain col in
  check Alcotest.bool "not conservative up to 5" false big.Conservative.conservative

(* A root created before its 11 null predecessors, six of which form a
   directed cycle of s-edges.  There is no topological order, so each
   element gets its own hue; walking in id order instead read the
   initial hue 0 of conflicts not yet colored and clashed. *)
let test_natural_on_cyclic_nulls () =
  let inst = Instance.create () in
  let r = Pred.make "r" 2 and s = Pred.make "s" 2 in
  let null () = Instance.fresh_null inst ~birth:0 ~rule:"t" ~parent:None in
  let add p args = ignore (Instance.add_fact inst (Fact.make p args)) in
  let root = null () in
  let xs = Array.init 11 (fun _ -> null ()) in
  Array.iter (fun x -> add r [| x; root |]) xs;
  for i = 0 to 5 do
    add s [| xs.(i); xs.((i + 1) mod 6) |]
  done;
  let col = Coloring.natural ~m:1 inst in
  check Alcotest.int "natural" 0
    (List.length (Coloring.check_natural ~m:1 inst col));
  check Alcotest.int "one hue per element" (Instance.num_elements inst)
    col.Coloring.num_hues

let suite =
  ( "ptp",
    [ tc "refine chain depths" test_refine_chain_depths;
      tc "refine modes" test_refine_modes;
      tc "refine constants singleton" test_refine_constants_singleton;
      tc "refine monotone in depth" test_refine_monotone_in_depth;
      tc "refine agrees with exact (chain)" test_refine_agrees_with_exact_on_chain;
      tc "quotient Example 3" test_quotient_example3;
      tc "quotient projection is hom (Lemma 1)" test_quotient_projection_is_hom;
      tc "quotient minimality" test_quotient_minimality;
      tc "quotient keeps constants" test_quotient_constants_kept;
      tc "natural coloring chain" test_natural_coloring_chain;
      tc "natural coloring tree" test_natural_coloring_tree;
      tc "coloring well-formed (Def 7)" test_coloring_is_coloring;
      tc "Example 4 quotient cycle" test_example4_quotient_cycle;
      tc "distance coloring (Lemma 13)" test_distance_coloring;
      tc "check_natural reports a lightness clash"
        test_check_natural_reports_clash;
      tc "lightness keys = scan oracle (zoo skeletons)" test_keys_zoo_skeletons;
      tc "lightness keys = scan oracle (random instances)"
        test_keys_random_instances;
      tc "lightness keys linear at hubs" test_keys_linear_at_hubs;
      tc "lightness keys past 8 free elements (|Sigma| = 12)"
        test_keys_wide_signature;
      tc "Canonical.key = permutation oracle (random small structures)"
        test_canonical_random;
      tc "lightness keys: 9 symmetric pairs do not branch 9! ways"
        test_keys_symmetric_pairs;
      tc "refine = string-keyed reference (zoo skeletons, random instances)"
        test_refine_reference;
      tc "vtdag chain and tree" test_vtdag_chain_tree;
      tc "vtdag violations" test_vtdag_violations;
      tc "vtdag cycle" test_vtdag_cycle;
      tc "conservative colored chain" test_conservative_chain;
      tc "uncolored not conservative (Example 3)" test_not_conservative_uncolored;
      tc "conservativity frontier (Example 4)" test_conservative_frontier;
      tc "natural coloring on cyclic nulls" test_natural_on_cyclic_nulls;
    ] )
