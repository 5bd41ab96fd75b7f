(* Unit tests for Bddfc_structure: instances, graph views, canonical
   forms. *)

open Bddfc_logic
open Bddfc_structure

let check = Alcotest.check
let tc name f = Alcotest.test_case name `Quick f

let e = Pred.make "e" 2
let p1 = Pred.make "p" 1

let test_const_interning () =
  let inst = Instance.create () in
  let a = Instance.const inst "a" in
  let a' = Instance.const inst "a" in
  let b = Instance.const inst "b" in
  check Alcotest.int "same id" a a';
  check Alcotest.bool "distinct consts" true (a <> b);
  check Alcotest.(option string) "name" (Some "a") (Instance.const_name inst a);
  check Alcotest.bool "is const" true (Instance.is_const inst a)

let test_null_provenance () =
  let inst = Instance.create () in
  let a = Instance.const inst "a" in
  let n = Instance.fresh_null inst ~birth:3 ~rule:"r1" ~parent:(Some a) in
  check Alcotest.bool "is null" true (Instance.is_null inst n);
  check Alcotest.(option int) "parent" (Some a) (Instance.parent inst n);
  check Alcotest.int "birth" 3 (Instance.birth inst n)

let test_fact_dedup () =
  let inst = Instance.create () in
  let a = Instance.const inst "a" and b = Instance.const inst "b" in
  check Alcotest.bool "first add" true (Instance.add_fact inst (Fact.make e [| a; b |]));
  check Alcotest.bool "dup add" false (Instance.add_fact inst (Fact.make e [| a; b |]));
  check Alcotest.int "one fact" 1 (Instance.num_facts inst)

let test_indexes () =
  let inst = Instance.create () in
  let a = Instance.const inst "a"
  and b = Instance.const inst "b"
  and cc = Instance.const inst "c" in
  ignore (Instance.add_fact inst (Fact.make e [| a; b |]));
  ignore (Instance.add_fact inst (Fact.make e [| a; cc |]));
  ignore (Instance.add_fact inst (Fact.make e [| b; cc |]));
  check Alcotest.int "by pred" 3 (List.length (Instance.facts_with_pred inst e));
  check Alcotest.int "a at pos 0" 2
    (List.length (Instance.facts_with_arg inst e 0 a));
  check Alcotest.int "c at pos 1" 2
    (List.length (Instance.facts_with_arg inst e 1 cc));
  check Alcotest.int "b at pos 0" 1
    (List.length (Instance.facts_with_arg inst e 0 b))

let test_atom_conversion () =
  let atoms = Parser.parse_atoms "e(a,b). p(a)." in
  let inst = Instance.of_atoms atoms in
  check Alcotest.int "elements" 2 (Instance.num_elements inst);
  check Alcotest.int "facts" 2 (Instance.num_facts inst);
  let back = Instance.to_atoms inst in
  check Alcotest.int "atoms back" 2 (List.length back);
  check Alcotest.bool "e(a,b) present" true
    (List.exists (Atom.equal (Atom.app "e" [ Term.cst "a"; Term.cst "b" ])) back)

let test_add_atom_rejects_vars () =
  let inst = Instance.create () in
  Alcotest.check_raises "variable in fact"
    (Invalid_argument "Instance.add_atom: variable X in fact") (fun () ->
      ignore (Instance.add_atom inst (Atom.app "p" [ Term.var "X" ])))

let test_copy_independent () =
  let inst = Instance.of_atoms (Parser.parse_atoms "e(a,b).") in
  let cp = Instance.copy inst in
  let a = Instance.const cp "a" in
  ignore (Instance.add_fact cp (Fact.make p1 [| a |]));
  check Alcotest.int "copy grew" 2 (Instance.num_facts cp);
  check Alcotest.int "original untouched" 1 (Instance.num_facts inst)

let test_restrict_preds () =
  let inst = Instance.of_atoms (Parser.parse_atoms "e(a,b). p(a).") in
  let r = Instance.restrict_preds inst (Pred.Set.singleton e) in
  check Alcotest.int "only e" 1 (Instance.num_facts r);
  check Alcotest.int "elements kept" (Instance.num_elements inst)
    (Instance.num_elements r)

let test_restrict_elements () =
  let inst = Instance.of_atoms (Parser.parse_atoms "e(a,b). e(b,c). p(a).") in
  let a = Instance.const inst "a" and b = Instance.const inst "b" in
  let r =
    Instance.restrict_elements inst (Element.Id_set.of_list [ a; b ])
  in
  check Alcotest.int "facts inside {a,b}" 2 (Instance.num_facts r)

let test_equal_facts () =
  let i1 = Instance.of_atoms (Parser.parse_atoms "e(a,b). e(b,c).") in
  let i2 = Instance.of_atoms (Parser.parse_atoms "e(b,c). e(a,b).") in
  check Alcotest.bool "order irrelevant" true (Instance.equal_facts i1 i2)

(* ------------------------------------------------------------------ *)
(* Bgraph                                                              *)
(* ------------------------------------------------------------------ *)

let test_bgraph_adjacency () =
  let inst = Instance.of_atoms (Parser.parse_atoms "e(a,b). e(b,c). p(b).") in
  let g = Bgraph.make inst in
  let b = Instance.const inst "b" in
  check Alcotest.int "out" 1 (Bgraph.out_degree g b);
  check Alcotest.int "in" 1 (Bgraph.in_degree g b);
  check Alcotest.int "unary labels" 1 (List.length (Bgraph.unary_labels g b));
  check Alcotest.int "max degree" 2 (Bgraph.max_degree g)

let test_bgraph_cycles () =
  let c3 = Bddfc_workload.Gen.cycle ~len:3 () in
  let g = Bgraph.make c3 in
  (* constants only: no non-constant cycles *)
  check Alcotest.bool "const cycle invisible" false
    (Bgraph.has_directed_cycle_upto g 5);
  (* null cycle *)
  let inst = Instance.create () in
  let n1 = Instance.fresh_null inst ~birth:0 ~rule:"t" ~parent:None in
  let n2 = Instance.fresh_null inst ~birth:0 ~rule:"t" ~parent:None in
  ignore (Instance.add_fact inst (Fact.make e [| n1; n2 |]));
  ignore (Instance.add_fact inst (Fact.make e [| n2; n1 |]));
  let g2 = Bgraph.make inst in
  check Alcotest.bool "2-cycle found" true (Bgraph.has_directed_cycle_upto g2 2);
  check Alcotest.bool "no topo order" true (Bgraph.topo_order g2 = None)

let test_bgraph_topo () =
  let inst = Bddfc_workload.Gen.null_chain ~len:6 () in
  let g = Bgraph.make inst in
  match Bgraph.topo_order g with
  | None -> Alcotest.fail "chain should have a topo order"
  | Some order ->
      check Alcotest.int "5 nulls ordered" 5 (List.length order);
      (* parents precede children *)
      let pos = Hashtbl.create 8 in
      List.iteri (fun i x -> Hashtbl.replace pos x i) order;
      Instance.iter_facts
        (fun f ->
          match Fact.args f with
          | [| x; y |] when Instance.is_null inst x && Instance.is_null inst y ->
              check Alcotest.bool "edge respects order" true
                (Hashtbl.find pos x < Hashtbl.find pos y)
          | _ -> ())
        inst

let test_pred_set () =
  let inst = Bddfc_workload.Gen.null_chain ~len:4 () in
  let g = Bgraph.make inst in
  (* last element: P(e) = {e, parent} *)
  let last = Instance.num_elements inst - 1 in
  check Alcotest.int "P(e) size" 2 (Element.Id_set.cardinal (Bgraph.pred_set g last));
  check Alcotest.int "P_2(e) size" 3
    (Element.Id_set.cardinal (Bgraph.pred_set_k g 2 last));
  (* constants: P(c) = {c} *)
  let c0 = Instance.const inst "c0" in
  check Alcotest.int "P(const)" 1 (Element.Id_set.cardinal (Bgraph.pred_set g c0))

(* pred_set_k g k e iterates P k times on top of P(e) itself: k hops
   plus one, so k = 0 is P(e).  A chain long enough to tell P^k from
   P^(k+1) pins it. *)
let test_pred_set_k_hops () =
  let inst = Bddfc_workload.Gen.null_chain ~len:8 () in
  let g = Bgraph.make inst in
  let last = Instance.num_elements inst - 1 in
  List.iter
    (fun (k, size) ->
      check Alcotest.int (Printf.sprintf "pred_set_k %d" k) size
        (Element.Id_set.cardinal (Bgraph.pred_set_k g k last)))
    [ (0, 2); (1, 3); (2, 4); (3, 5) ]

let test_ball () =
  let inst = Bddfc_workload.Gen.null_chain ~len:7 () in
  let g = Bgraph.make inst in
  let mid = 3 in
  check Alcotest.int "radius 1 ball" 3 (Element.Id_set.cardinal (Bgraph.ball g mid 1));
  check Alcotest.int "radius 2 ball" 5 (Element.Id_set.cardinal (Bgraph.ball g mid 2))

(* ------------------------------------------------------------------ *)
(* Canonical                                                           *)
(* ------------------------------------------------------------------ *)

let test_canonical_iso () =
  (* two 2-chains of nulls are isomorphic *)
  let mk () =
    let inst = Instance.create () in
    let n1 = Instance.fresh_null inst ~birth:0 ~rule:"t" ~parent:None in
    let n2 = Instance.fresh_null inst ~birth:0 ~rule:"t" ~parent:None in
    ignore (Instance.add_fact inst (Fact.make e [| n1; n2 |]));
    (inst, n1, n2)
  in
  let i1, a1, b1 = mk () and i2, a2, b2 = mk () in
  check Alcotest.bool "iso same roots" true
    (Canonical.iso_with_roots i1 [ a1; b1 ] a1 i2 [ a2; b2 ] a2);
  check Alcotest.bool "root position matters" false
    (Canonical.iso_with_roots i1 [ a1; b1 ] a1 i2 [ a2; b2 ] b2)

let test_canonical_constants_rigid () =
  let i1 = Instance.of_atoms (Parser.parse_atoms "e(a,b).") in
  let i2 = Instance.of_atoms (Parser.parse_atoms "e(b,a).") in
  let elems inst = Instance.elements inst in
  check Alcotest.bool "constants fixed by name" false
    (Canonical.iso_small i1 (elems i1) i2 (elems i2))

let test_canonical_key_stable () =
  let inst = Instance.of_atoms (Parser.parse_atoms "e(a,b). e(b,a).") in
  let k1 = Canonical.key inst (Instance.elements inst) in
  let k2 = Canonical.key inst (Instance.elements inst) in
  check Alcotest.string "deterministic" k1 k2

(* Regression: Fact.hash used to go through Hashtbl.hash, whose default
   traversal stops after 10 meaningful nodes — high-arity facts differing
   only in late arguments all collided.  The hash must now see every
   argument. *)
let test_fact_hash_full_arity () =
  let wide = Pred.make "w" 16 in
  let base = Array.init 16 (fun i -> i) in
  let f1 = Fact.make wide base in
  let variant = Array.copy base in
  variant.(15) <- 999;
  let f2 = Fact.make wide variant in
  check Alcotest.bool "late-arg variants hash apart" true
    (Fact.hash f1 <> Fact.hash f2);
  check Alcotest.int "hash is stable" (Fact.hash f1)
    (Fact.hash (Fact.make wide (Array.copy base)));
  (* and the collision-prone shape actually behaves in a table *)
  let tbl = Hashtbl.create 64 in
  for i = 0 to 63 do
    let args = Array.copy base in
    args.(15) <- 1000 + i;
    Hashtbl.replace tbl (Fact.hash (Fact.make wide args)) ()
  done;
  check Alcotest.bool "64 late-arg variants give >1 distinct hash" true
    (Hashtbl.length tbl > 1)

(* ------------------------------------------------------------------ *)
(* Birth resets                                                        *)
(* ------------------------------------------------------------------ *)

(* Regression: reset_fact_births used to clear the fact table's births
   but leave each index bucket's birth array stale.  The compiled join
   scores windows from the buckets, so a re-chase of a chased instance
   read a stale birth as an empty window and pruned the branch that
   derives k(b); the interpreter (which read the table) found it. *)
let test_reset_births_reach_buckets () =
  let module Chase = Bddfc_chase.Chase in
  let module Eval = Bddfc_hom.Eval in
  let p1 = Parser.parse_program "e(X,Y) -> f(X,Y). f(X,Y) -> g(Y,X). e(a,b)." in
  let r1 =
    Chase.run (Theory.make p1.Parser.rules) (Instance.of_atoms p1.Parser.facts)
  in
  let staged = r1.Chase.instance in
  check Alcotest.int "births 0/1/2" 2 (Instance.max_fact_birth staged);
  let t2 = Parser.parse_theory "f(X,Y) -> h(X). f(X,Y), h(X) -> k(Y)." in
  let run eval base = (Chase.run ~eval t2 base).Chase.instance in
  let compiled = run Eval.Compiled staged in
  let interp = run Eval.Interp staged in
  let fresh =
    run Eval.Compiled (Instance.of_atoms (Instance.to_atoms staged))
  in
  check Alcotest.int "compiled derives k(b)" 5 (Instance.num_facts compiled);
  check Alcotest.bool "compiled = interp" true
    (Instance.equal_facts compiled interp);
  check Alcotest.bool "compiled = fresh copy" true
    (Instance.equal_facts compiled fresh);
  (* and directly: after a reset every fact sits in the round-0 window *)
  let c = Instance.copy staged in
  Instance.reset_fact_births c;
  let f = Pred.make "f" 2 in
  check Alcotest.int "round-0 window after reset" 1
    (Instance.card_with_pred_window c f ~since:0 ~upto:1);
  check Alcotest.int "round-0 list after reset" 1
    (List.length (Instance.facts_with_pred_window ~upto:1 c f));
  check Alcotest.int "no later window after reset" 0
    (Instance.card_with_pred_window c f ~since:1 ~upto:max_int);
  check Alcotest.int "no later list after reset" 0
    (List.length (Instance.facts_with_pred_window ~since:1 c f))

(* ------------------------------------------------------------------ *)
(* Instance against a reference model                                  *)
(* ------------------------------------------------------------------ *)

(* The model is the plain arrival-ordered list of (fact, birth) pairs,
   plus the two pieces of bookkeeping the interface documents: the
   predicates ever filed, and whether births arrived monotonically (the
   condition under which windowed cardinalities are exact). *)
type model = {
  m_facts : (Fact.t * int) list; (* arrival order *)
  m_preds : Pred.Set.t;
  m_max : int;
  m_mono : bool;
}

type op =
  | Add of int * int array * int (* predicate index, args, birth *)
  | Remove of (int * int array) list
  | Copy
  | Restrict_preds of bool array
  | Restrict_elements of int array (* the element ids kept *)
  | Reset

let m_preds = [| Pred.make "p" 1; Pred.make "p" 2; Pred.make "e" 2 |]

let m_fact (pi, args) = Fact.make m_preds.(pi) args

(* The element ids a model test's facts draw from: the small space
   enumerates every fact over its 4 ids; the large one has 200 ids, half
   of them a power-of-two stride apart far from 0, so the instance's
   tables grow, wrap and lose entries many times over. *)
let small_elems = Array.init 4 Fun.id
let large_elems =
  Array.append (Array.init 100 Fun.id)
    (Array.init 100 (fun k -> 16_384 + (64 * k)))

let every_fact =
  List.concat_map
    (fun pi ->
      let ar = Pred.arity m_preds.(pi) in
      let rec tuples k =
        if k = 0 then [ [] ]
        else
          List.concat_map
            (fun t -> List.map (fun x -> x :: t) (Array.to_list small_elems))
            (tuples (k - 1))
      in
      List.map (fun t -> m_fact (pi, Array.of_list t)) (tuples ar))
    [ 0; 1; 2 ]

let summarize facts =
  List.fold_left
    (fun m (f, b) ->
      {
        m with
        m_preds = Pred.Set.add (Fact.pred f) m.m_preds;
        m_max = max m.m_max b;
        m_mono = m.m_mono && b >= m.m_max;
      })
    { m_facts = facts; m_preds = Pred.Set.empty; m_max = 0; m_mono = true }
    facts

let step_model m = function
  | Add (pi, args, b) ->
      let f = m_fact (pi, args) in
      if List.exists (fun (g, _) -> Fact.equal f g) m.m_facts then m
      else
        {
          m_facts = m.m_facts @ [ (f, b) ];
          m_preds = Pred.Set.add (Fact.pred f) m.m_preds;
          m_max = max m.m_max b;
          m_mono = m.m_mono && b >= m.m_max;
        }
  | Remove fs ->
      let dead = List.map m_fact fs in
      {
        m with
        m_facts =
          List.filter
            (fun (f, _) -> not (List.exists (Fact.equal f) dead))
            m.m_facts;
      }
  | Copy -> summarize m.m_facts
  | Restrict_preds keep ->
      summarize
        (List.filter
           (fun (f, _) ->
             let i = ref (-1) in
             Array.iteri
               (fun j p -> if Pred.equal p (Fact.pred f) then i := j)
               m_preds;
             keep.(!i))
           m.m_facts)
  | Restrict_elements keep ->
      summarize
        (List.filter
           (fun (f, _) ->
             Array.for_all (fun x -> Array.mem x keep) (Fact.args f))
           m.m_facts)
  | Reset ->
      {
        m with
        m_facts = List.map (fun (f, _) -> (f, 0)) m.m_facts;
        m_max = 0;
        m_mono = true;
      }

let step_inst inst = function
  | Add (pi, args, birth) ->
      ignore (Instance.add_fact ~birth inst (m_fact (pi, args)));
      inst
  | Remove fs ->
      ignore (Instance.remove_facts inst (List.map m_fact fs));
      inst
  | Copy -> Instance.copy inst
  | Restrict_preds keep ->
      let set = ref Pred.Set.empty in
      Array.iteri
        (fun i p -> if keep.(i) then set := Pred.Set.add p !set)
        m_preds;
      Instance.restrict_preds inst !set
  | Restrict_elements keep ->
      Instance.restrict_elements inst
        (Element.Id_set.of_list (Array.to_list keep))
  | Reset ->
      Instance.reset_fact_births inst;
      inst

let windows =
  List.concat_map
    (fun since ->
      List.map (fun upto -> (since, upto)) [ None; Some 1; Some 3; Some 5 ])
    [ 0; 1; 2; 4 ]

(* Every accessor against the model, at the given element ids and birth
   windows; [probes] are the facts whose [mem_fact] and [fact_birth] are
   read.  [Error] names the first mismatch. *)
let agrees ~elems ~windows ~probes inst m =
  let fail fmt = Printf.ksprintf (fun s -> raise (Failure s)) fmt in
  let in_window b since upto =
    b >= since && match upto with None -> true | Some u -> b < u
  in
  (* the model's facts per predicate and per (predicate, position,
     element), newest first, as every index read returns them *)
  let groups = Hashtbl.create 64 in
  List.iter
    (fun ((f, _) as fb) ->
      let push key =
        Hashtbl.replace groups key
          (fb :: Option.value ~default:[] (Hashtbl.find_opt groups key))
      in
      let pid = Pred.id (Fact.pred f) in
      push (pid, -1, 0);
      Array.iteri (fun pos x -> push (pid, pos, x)) (Fact.args f))
    m.m_facts;
  let model_window key since upto =
    List.filter_map
      (fun (f, b) -> if in_window b since upto then Some f else None)
      (Option.value ~default:[] (Hashtbl.find_opt groups key))
  in
  let same_list what l1 l2 =
    if not (List.length l1 = List.length l2 && List.for_all2 Fact.equal l1 l2)
    then fail "%s: got [%s], want [%s]" what
        (String.concat " " (List.map Fact.show l1))
        (String.concat " " (List.map Fact.show l2))
  in
  let same_card what got want =
    if (m.m_mono && got <> want) || got < want then
      fail "%s: card %d, true count %d (monotone %b)" what got want m.m_mono
  in
  try
    if Instance.num_facts inst <> List.length m.m_facts then
      fail "num_facts %d, want %d" (Instance.num_facts inst)
        (List.length m.m_facts);
    same_list "facts" (Instance.facts inst) (List.map fst m.m_facts);
    if not (Pred.Set.equal (Instance.preds inst) m.m_preds) then fail "preds";
    let births = Fact.Table.create 64 in
    List.iter (fun (f, b) -> Fact.Table.replace births f b) m.m_facts;
    List.iter
      (fun f ->
        let want = Fact.Table.find_opt births f in
        if Instance.mem_fact inst f <> (want <> None) then
          fail "mem_fact %s" (Fact.show f);
        let b = Option.value want ~default:0 in
        if Instance.fact_birth inst f <> b then
          fail "fact_birth %s: %d, want %d" (Fact.show f)
            (Instance.fact_birth inst f) b)
      probes;
    Array.iter
      (fun p ->
        let check_access what key list iter card card_win =
          same_list what (list ~since:0 ~upto:None) (model_window key 0 None);
          if card () <> List.length (model_window key 0 None) then
            fail "%s: unwindowed card" what;
          List.iter
            (fun (since, upto) ->
              let want = model_window key since upto in
              let what =
                Printf.sprintf "%s [%d,%s)" what since
                  (match upto with None -> "-" | Some u -> string_of_int u)
              in
              same_list what (list ~since ~upto) want;
              let acc = ref [] in
              iter ~since ~upto (fun f -> acc := f :: !acc);
              same_list (what ^ " iter") (List.rev !acc) want;
              same_card what
                (card_win ~since ~upto:(Option.value upto ~default:max_int))
                (List.length want))
            windows
        in
        let pid = Pred.id p in
        check_access (Pred.show p) (pid, -1, 0)
          (fun ~since ~upto ->
            if since = 0 && upto = None then Instance.facts_with_pred inst p
            else Instance.facts_with_pred_window ~since ?upto inst p)
          (fun ~since ~upto fn ->
            Instance.iter_with_pred_window ~since ?upto inst p fn)
          (fun () -> Instance.card_with_pred inst p)
          (fun ~since ~upto ->
            Instance.card_with_pred_window inst p ~since ~upto);
        for pos = 0 to Pred.arity p - 1 do
          Array.iter
            (fun x ->
              check_access
                (Printf.sprintf "%s@%d=%d" (Pred.show p) pos x)
                (pid, pos, x)
                (fun ~since ~upto ->
                  if since = 0 && upto = None then
                    Instance.facts_with_arg inst p pos x
                  else
                    Instance.facts_with_arg_window ~since ?upto inst p pos x)
                (fun ~since ~upto fn ->
                  Instance.iter_with_arg_window ~since ?upto inst p pos x fn)
                (fun () -> Instance.card_with_arg inst p pos x)
                (fun ~since ~upto ->
                  Instance.card_with_arg_window inst p pos x ~since ~upto))
            elems
        done)
      m_preds;
    Ok ()
  with Failure msg -> Error msg

let show_op = function
  | Add (pi, args, b) ->
      Printf.sprintf "add %s@%d" (Fact.show (m_fact (pi, args))) b
  | Remove fs ->
      "remove "
      ^ String.concat "," (List.map (fun f -> Fact.show (m_fact f)) fs)
  | Copy -> "copy"
  | Restrict_preds k ->
      "restrict_preds "
      ^ String.init (Array.length k) (fun i -> if k.(i) then '1' else '0')
  | Restrict_elements k ->
      "restrict_elements "
      ^ String.concat "," (Array.to_list (Array.map string_of_int k))
  | Reset -> "reset"

(* An op sequence of [len] ops over [elems]: monotone cases draw each
   birth as the previous one plus 0 or 1; the others draw births at
   random.  Removals take up to [max_remove] facts, mostly ones added
   before, and one add in three (once something was removed) files a
   removed fact again.  An element restriction keeps each element with
   odds [keep_odds] to 1. *)
let ops_gen ~elems ~len ~max_remove ~keep_odds =
  let open QCheck.Gen in
  let fact_gen =
    int_range 0 2 >>= fun pi ->
    array_repeat (Pred.arity m_preds.(pi)) (oneofa elems)
    >|= fun args -> (pi, args)
  in
  let old_or_new pool =
    if pool = [] then fact_gen
    else frequency [ (2, oneofl pool); (1, fact_gen) ]
  in
  bool >>= fun monotone ->
  len >>= fun len ->
  let rec go k birth added removed acc =
    if k = 0 then return (List.rev acc)
    else
      frequency
        [ (12, return `Add); (2, return `Remove); (1, return `Copy);
          (1, return `Rp); (1, return `Re); (1, return `Reset) ]
      >>= function
      | `Add ->
          (if removed <> [] then
             frequency [ (1, oneofl removed); (2, fact_gen) ]
           else fact_gen)
          >>= fun (pi, args) ->
          (if monotone then int_range 0 1 >|= ( + ) birth else int_range 0 5)
          >>= fun b ->
          go (k - 1) b ((pi, args) :: added) removed
            (Add (pi, args, b) :: acc)
      | `Remove ->
          list_size (int_range 1 max_remove) (old_or_new added) >>= fun fs ->
          go (k - 1) birth added (fs @ removed) (Remove fs :: acc)
      | `Copy -> go (k - 1) birth added removed (Copy :: acc)
      | `Rp ->
          array_repeat 3 bool >>= fun keep ->
          go (k - 1) birth added removed (Restrict_preds keep :: acc)
      | `Re ->
          array_repeat (Array.length elems)
            (frequency [ (keep_odds, return true); (1, return false) ])
          >>= fun mask ->
          let keep =
            Array.of_list
              (List.filteri (fun i _ -> mask.(i)) (Array.to_list elems))
          in
          go (k - 1) birth added removed (Restrict_elements keep :: acc)
      | `Reset -> go (k - 1) 0 added removed (Reset :: acc)
  in
  go len 0 [] [] []

(* Run [ops] on an instance whose ids [elems] exist, checking it against
   the model after every op for which [full] holds (and, lighter, the
   fact count, the arrival log and the op's own facts after every op);
   every instance a copy or restriction was taken from must still agree
   with its model at the end. *)
let run_model ~elems ~windows ~probes ~full ops =
  let inst = Instance.create () in
  for x = 0 to Array.fold_left max 0 elems do
    ignore (Instance.const inst (string_of_int x))
  done;
  let op_facts = function
    | Add (pi, args, _) -> [ m_fact (pi, args) ]
    | Remove fs -> List.map m_fact fs
    | _ -> []
  in
  let check i op inst m =
    if full i op then agrees ~elems ~windows ~probes inst m
    else agrees ~elems:[||] ~windows:[] ~probes:(op_facts op) inst m
  in
  let sources = ref [] in
  let rec go i inst m = function
    | [] -> true
    | op :: rest -> (
        let inst' = step_inst inst op and m' = step_model m op in
        if inst' != inst then sources := (op, inst, m) :: !sources;
        match check i op inst' m' with
        | Ok () -> go (i + 1) inst' m' rest
        | Error msg -> QCheck.Test.fail_reportf "after %s: %s" (show_op op) msg)
  in
  let ok = go 0 inst (summarize []) ops in
  ok
  && List.for_all
       (fun (op, inst, m) ->
         match agrees ~elems ~windows ~probes inst m with
         | Ok () -> true
         | Error msg ->
             QCheck.Test.fail_reportf "source of %s, at the end: %s"
               (show_op op) msg)
       !sources

let print_ops ops = String.concat "; " (List.map show_op ops)

let prop_instance_model =
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~count:150
       ~name:"instance agrees with a (fact, birth) list"
       (QCheck.make ~print:print_ops
          (ops_gen ~elems:small_elems ~len:(QCheck.Gen.int_range 5 40)
             ~max_remove:3 ~keep_odds:1))
       (run_model ~elems:small_elems ~windows ~probes:every_fact
          ~full:(fun _ _ -> true)))

(* The same model at sizes that grow, wrap and shrink the fact and
   element tables: 200 element ids, up to 400 ops, removed facts filed
   again, element restrictions that keep most elements (so the instance
   keeps growing).  Accessors are read in full after every op but adds (and every
   25th add); [mem_fact] and [fact_birth] are probed on every fact the
   ops name. *)
let prop_instance_model_large =
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~count:6
       ~name:"instance at 200 elements agrees with a (fact, birth) list"
       (QCheck.make ~print:print_ops
          (ops_gen ~elems:large_elems ~len:(QCheck.Gen.int_range 100 400)
             ~max_remove:8 ~keep_odds:5))
       (fun ops ->
         let probes =
           List.concat_map
             (function
               | Add (pi, args, _) -> [ m_fact (pi, args) ]
               | Remove fs -> List.map m_fact fs
               | _ -> [])
             ops
         in
         run_model ~elems:large_elems
           ~windows:[ (0, None); (1, Some 3); (2, None) ]
           ~probes
           ~full:(fun i -> function Add _ -> i mod 25 = 0 | _ -> true)
           ops))

(* Facts whose hashes agree in their low ten bits, all ones: in a fact
   table of at most 1,024 slots they share the last slot as their home,
   so their probe run wraps around to slot 0.  Removing one from the
   middle of the run must leave every other one reachable, with its
   birth. *)
let test_fact_table_collisions () =
  let inst = Instance.create () in
  let ids = Array.init 200 (fun i -> Instance.const inst (string_of_int i)) in
  let colliding = ref [] in
  Array.iter
    (fun a ->
      Array.iter
        (fun b ->
          let f = Fact.make e [| a; b |] in
          if Fact.hash f land 1023 = 1023 && List.length !colliding < 12 then
            colliding := f :: !colliding)
        ids)
    ids;
  let facts = Array.of_list (List.rev !colliding) in
  check Alcotest.int "12 colliding facts" 12 (Array.length facts);
  Array.iteri
    (fun i f -> ignore (Instance.add_fact ~birth:i inst f))
    facts;
  let survivors_agree what ~removed =
    Array.iteri
      (fun i f ->
        let here = not (List.mem i removed) in
        check Alcotest.bool
          (Printf.sprintf "%s: mem_fact %s" what (Fact.show f))
          here (Instance.mem_fact inst f);
        check Alcotest.int
          (Printf.sprintf "%s: fact_birth %s" what (Fact.show f))
          (if here then i else 0)
          (Instance.fact_birth inst f))
      facts
  in
  survivors_agree "filed" ~removed:[];
  check Alcotest.int "one removed" 1 (Instance.remove_facts inst [ facts.(4) ]);
  survivors_agree "after removing the fifth" ~removed:[ 4 ];
  check Alcotest.int "two more removed" 2
    (Instance.remove_facts inst [ facts.(0); facts.(9); facts.(0) ]);
  survivors_agree "after removing the first and tenth" ~removed:[ 0; 4; 9 ];
  check Alcotest.int "9 facts left" 9 (Instance.num_facts inst);
  check Alcotest.bool "filed again" true
    (Instance.add_fact ~birth:4 inst facts.(4));
  survivors_agree "after filing the fifth again" ~removed:[ 0; 9 ]

(* A sparse wide signature: 64 binary predicates with two facts each, on
   element ids near 20,000.  The index must cost what it holds, not the
   largest element id (an id-indexed array per predicate and position
   would be 2.5 million words here). *)
let test_sparse_wide_memory () =
  let build ~facts =
    let inst = Instance.create () in
    for _ = 0 to 20_100 do
      ignore (Instance.fresh_null inst ~birth:0 ~rule:"wide" ~parent:None)
    done;
    if facts then
      for i = 0 to 63 do
        let p = Pred.make (Printf.sprintf "wide%d" i) 2 in
        ignore (Instance.add_fact inst (Fact.make p [| 20_000 + i; 20_099 |]));
        ignore (Instance.add_fact inst (Fact.make p [| 20_099; 20_000 + i |]))
      done;
    inst
  in
  let words inst = Obj.reachable_words (Obj.repr inst) in
  let bare = words (build ~facts:false) and full = words (build ~facts:true) in
  check Alcotest.bool
    (Printf.sprintf "%d words with 128 facts, %d without: at most 1.5x" full
       bare)
    true
    (2 * full <= 3 * bare)

(* ------------------------------------------------------------------ *)
(* Predicate interning                                                 *)
(* ------------------------------------------------------------------ *)

let test_pred_ids () =
  let p = Pred.make "pid_p" 1 in
  check Alcotest.int "same (name, arity), same id" (Pred.id p)
    (Pred.id (Pred.make "pid_p" 1));
  check Alcotest.bool "p/1 and p/2 differ" true
    (Pred.id p <> Pred.id (Pred.make "pid_p" 2));
  check Alcotest.bool "p/1 <> p/2" false
    (Pred.equal p (Pred.make "pid_p" 2))

let test_pred_order () =
  (* interned in the reverse of their (name, arity) order *)
  let z = Pred.make "pord_z" 1 in
  let a2 = Pred.make "pord_a" 2 in
  let a1 = Pred.make "pord_a" 1 in
  let names l = List.map Pred.show l in
  check Alcotest.(list string) "sort by (name, arity)"
    [ "pord_a/1"; "pord_a/2"; "pord_z/1" ]
    (names (List.sort Pred.compare [ z; a2; a1 ]));
  check Alcotest.(list string) "set order"
    [ "pord_a/1"; "pord_a/2"; "pord_z/1" ]
    (names (Pred.Set.elements (Pred.Set.of_list [ z; a2; a1 ])))

let test_pred_intern_domains () =
  let names = Array.init 200 (fun i -> Printf.sprintf "pdom_%d" i) in
  let intern order () =
    Array.map (fun i -> Pred.id (Pred.make names.(i) 2)) order
  in
  let up = Array.init 200 Fun.id in
  let down = Array.init 200 (fun i -> 199 - i) in
  let d1 = Domain.spawn (intern up) and d2 = Domain.spawn (intern down) in
  let ids1 = Domain.join d1 and ids2 = Domain.join d2 in
  for i = 0 to 199 do
    check Alcotest.int names.(i) ids1.(i) ids2.(199 - i)
  done;
  check Alcotest.int "200 distinct ids" 200
    (List.length (List.sort_uniq compare (Array.to_list ids1)))

let suite =
  ( "structure",
    [ tc "const interning" test_const_interning;
      tc "null provenance" test_null_provenance;
      tc "fact dedup" test_fact_dedup;
      tc "indexes" test_indexes;
      tc "atom conversion" test_atom_conversion;
      tc "add_atom rejects vars" test_add_atom_rejects_vars;
      tc "copy independence" test_copy_independent;
      tc "restrict preds" test_restrict_preds;
      tc "restrict elements" test_restrict_elements;
      tc "equal facts" test_equal_facts;
      tc "bgraph adjacency" test_bgraph_adjacency;
      tc "bgraph cycles" test_bgraph_cycles;
      tc "bgraph topo order" test_bgraph_topo;
      tc "P(e) sets" test_pred_set;
      tc "balls" test_ball;
      tc "canonical iso" test_canonical_iso;
      tc "canonical constants rigid" test_canonical_constants_rigid;
      tc "canonical key stable" test_canonical_key_stable;
      tc "fact hash full arity" test_fact_hash_full_arity;
      tc "reset births reach the buckets" test_reset_births_reach_buckets;
      prop_instance_model;
      tc "pred ids" test_pred_ids;
      tc "pred order" test_pred_order;
      tc "pred interning across 2 domains" test_pred_intern_domains;
      tc "pred_set_k counts k + 1 hops" test_pred_set_k_hops;
      prop_instance_model_large;
      tc "fact table: a removal inside a wrapped probe run"
        test_fact_table_collisions;
      tc "sparse wide signature: memory follows the facts"
        test_sparse_wide_memory;
    ] )
