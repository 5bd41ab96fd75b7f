(* Bounded-depth directional refinement: the scalable equivalence used to
   build quotient structures M_n(C) (Definition 5).

   class_0(e) distinguishes constants by name (Remark 1: named elements
   keep distinct positive types) and otherwise records the set of unary
   predicates true of e — in a colored structure this includes the color.
   class_{i+1}(e) refines class_i(e) with the *sets* of
   (relation, direction, class_i(neighbour)) triples.  Sets, not
   multisets: positive existential queries cannot count.

   On the paper's chain and tree examples this computes exactly the
   quotients of Examples 3, 4 and 9.  It is an approximation of positive-
   type equivalence in general (it captures directional tree queries of
   bounded depth); the exact decision procedure is Bddfc_hom.Pebble, and
   soundness of everything built on top is re-established by model
   checking (see DESIGN.md).

   Cost model: keys are int arrays.  class_0 is keyed by the constant's
   id or the sorted unary predicate ids; a step keys e by its previous
   class followed by the sorted distinct (direction, predicate id,
   neighbour class) triples, each packed into one int.  A step is one
   sort of each element's edge codes plus one hash lookup, O(edges log
   degree) in all.  Keys are interned in element order, so class ids are
   the first-occurrence numbering of the partition; that numbering is
   what the string-keyed reference in the tests produces too. *)

open Bddfc_budget
open Bddfc_logic
open Bddfc_structure

type mode =
  | Backward (* refine along incoming edges only *)
  | Bidirectional

type t = {
  graph : Bgraph.t;
  mode : mode;
  depth : int;
  cls : int array; (* element -> class id *)
  num_classes : int;
  tripped : Budget.resource option; (* budget stopped the refinement early *)
}

let intern tbl key =
  match Canonical.Table.find_opt tbl key with
  | Some id -> id
  | None ->
      let id = Canonical.Table.length tbl in
      Canonical.Table.replace tbl key id;
      id

(* Constants by element id (one per name), other elements by their sorted
   unary predicate ids: a constant's key is negative, a null's is not. *)
let initial_classes g =
  let inst = Bgraph.instance g in
  let n = Bgraph.size g in
  let tbl = Canonical.Table.create 64 in
  let cls = Array.make (max n 1) 0 in
  for e = 0 to n - 1 do
    let key =
      if Instance.is_const inst e then [| -1 - e |]
      else
        Array.of_list
          (List.sort_uniq Int.compare (List.map Pred.id (Bgraph.unary_labels g e)))
    in
    cls.(e) <- intern tbl key
  done;
  (cls, Canonical.Table.length tbl)

(* One (direction, predicate, neighbour class) triple as an int; [np]
   bounds the predicate ids of the graph's edges. *)
let code np dir p c = (((c * np) + Pred.id p) lsl 1) lor dir

let step g mode np cls =
  let n = Bgraph.size g in
  let tbl = Canonical.Table.create 64 in
  let cls' = Array.make (max n 1) 0 in
  let codes dir edges acc =
    List.fold_left (fun acc (p, d) -> code np dir p cls.(d) :: acc) acc edges
  in
  for e = 0 to n - 1 do
    let items =
      codes 0 (Bgraph.in_edges g e) []
      |> (if mode = Backward then Fun.id else codes 1 (Bgraph.out_edges g e))
      |> List.sort_uniq Int.compare
    in
    (* the previous class, then the sorted distinct triples *)
    cls'.(e) <- intern tbl (Array.of_list (cls.(e) :: items))
  done;
  (cls', Canonical.Table.length tbl)

let compute ?(mode = Bidirectional) ?budget ~depth g =
  let budget =
    match budget with
    | Some b -> Budget.cap ~refine_steps:depth b
    | None -> Budget.v ~refine_steps:depth ()
  in
  let np = ref 1 in
  for e = 0 to Bgraph.size g - 1 do
    List.iter (fun (p, _) -> np := max !np (Pred.id p + 1)) (Bgraph.out_edges g e)
  done;
  let np = !np in
  let cls0, n0 = initial_classes g in
  let rec go i cls num =
    if i >= depth then (cls, num, None)
    else
      match
        Budget.check_deadline budget;
        Budget.charge budget Budget.Refine_steps 1;
        step g mode np cls
      with
      | cls', num' ->
          (* early fixpoint: the partition can only refine; equal counts
             with consistent classes mean stability *)
          if num' = num then (cls', num', None) else go (i + 1) cls' num'
      | exception Budget.Exhausted r ->
          (* anytime: the partition of the last completed step is a sound
             (coarser) approximation *)
          (cls, num, Some r)
  in
  let cls, num_classes, tripped = go 0 cls0 n0 in
  { graph = g; mode; depth; cls; num_classes; tripped }

let num_classes t = t.num_classes
let equivalent t e1 e2 = t.cls.(e1) = t.cls.(e2)

let classes t =
  let buckets = Hashtbl.create 64 in
  Array.iteri
    (fun e c ->
      Hashtbl.replace buckets c
        (e :: Option.value ~default:[] (Hashtbl.find_opt buckets c)))
    t.cls;
  Hashtbl.fold (fun c es acc -> (c, List.rev es) :: acc) buckets []
  |> List.sort compare
