(* Test-only oracle for bounded-depth refinement: the original
   string-keyed class computation.  class_0 renders a constant as "c:" and
   its name and any other element as "u:" and its sorted unary predicate
   names; a step renders the previous class and the sorted distinct
   "i:R:c" / "o:R:c" neighbour items.  Keys are interned in element
   order, like the library's int keys, so the differential tests hold
   Refine.compute to identical class arrays, class counts and budget
   trips. *)

open Bddfc_budget
open Bddfc_logic
open Bddfc_structure
module Refine = Bddfc_ptp.Refine

let intern tbl next key =
  match Hashtbl.find_opt tbl key with
  | Some id -> id
  | None ->
      let id = !next in
      incr next;
      Hashtbl.replace tbl key id;
      id

let initial_classes g =
  let inst = Bgraph.instance g in
  let n = Bgraph.size g in
  let tbl = Hashtbl.create 64 in
  let next = ref 0 in
  let cls = Array.make (max n 1) 0 in
  for e = 0 to n - 1 do
    let key =
      match Instance.const_name inst e with
      | Some c -> "c:" ^ c
      | None ->
          let labels =
            List.sort_uniq String.compare
              (List.map Pred.name (Bgraph.unary_labels g e))
          in
          "u:" ^ String.concat "," labels
    in
    cls.(e) <- intern tbl next key
  done;
  (cls, !next)

let step g (mode : Refine.mode) cls =
  let n = Bgraph.size g in
  let tbl = Hashtbl.create 64 in
  let next = ref 0 in
  let cls' = Array.make (max n 1) 0 in
  for e = 0 to n - 1 do
    let dir_part take label =
      let items =
        List.map
          (fun (p, d) -> Printf.sprintf "%s:%s:%d" label (Pred.name p) cls.(d))
          take
      in
      List.sort_uniq String.compare items
    in
    let parts =
      match mode with
      | Backward -> dir_part (Bgraph.in_edges g e) "i"
      | Bidirectional ->
          dir_part (Bgraph.in_edges g e) "i" @ dir_part (Bgraph.out_edges g e) "o"
    in
    let key = string_of_int cls.(e) ^ "|" ^ String.concat ";" parts in
    cls'.(e) <- intern tbl next key
  done;
  (cls', !next)

(* [Refine.compute]'s loop around the string keys: the same budget
   charges, early fixpoint and anytime fallback. *)
let compute ?(mode = Refine.Bidirectional) ?budget ~depth g =
  let budget =
    match budget with
    | Some b -> Budget.cap ~refine_steps:depth b
    | None -> Budget.v ~refine_steps:depth ()
  in
  let cls0, n0 = initial_classes g in
  let rec go i cls num =
    if i >= depth then (cls, num, None)
    else
      match
        Budget.check_deadline budget;
        Budget.charge budget Budget.Refine_steps 1;
        step g mode cls
      with
      | cls', num' ->
          if num' = num then (cls', num', None) else go (i + 1) cls' num'
      | exception Budget.Exhausted r -> (cls, num, Some r)
  in
  go 0 cls0 n0
