(* The existential k-pebble game (Kolaitis–Vardi).

   Duplicator wins the game from (A, a) to (B, b) iff every sentence of
   the *k-variable existential-positive infinitary logic* true at (A, a)
   holds at (B, b) — with requantification, so k variables already express
   unboundedly long paths.  This is strictly stronger than preservation of
   k-variable conjunctive queries (decided exactly by Ptypes): a Duplicator
   win implies CQ-type inclusion, not conversely.  The game corresponds to
   k-consistency in CSP and to Datalog of width k; it is kept here both as
   a classical tool and as a sound lower bound for Ptypes (tested as such).

   A winning strategy is a nonempty family H of partial homomorphisms of
   size <= k that is downward closed and has the forth property: every
   f in H with |f| < k extends to every element of A.

   Partial homomorphisms must respect constants by name (queries may
   mention constants, and equality atoms x = c are admitted by the paper's
   Definition 3), and must respect the distinguished pair when given.

   The procedure enumerates all partial homomorphisms of size <= k, then
   iteratively deletes maps violating the forth property or whose
   restrictions were deleted, until a fixpoint.  This is exponential in k
   and meant for small validation structures; the scalable refinement
   quotient lives in Bddfc_ptp. *)

open Bddfc_logic
open Bddfc_structure

(* A partial map as a sorted array of (source, target) pairs. *)
type pmap = (Element.id * Element.id) array

let pmap_of_list l : pmap =
  let a = Array.of_list l in
  Array.sort compare a;
  a

let pmap_extend (m : pmap) a b : pmap =
  pmap_of_list ((a, b) :: Array.to_list m)

let pmap_mem_src (m : pmap) a = Array.exists (fun (x, _) -> x = a) m
let pmap_find (m : pmap) a =
  Array.fold_left (fun acc (x, y) -> if x = a then Some y else acc) None m

let pmap_restrictions (m : pmap) : pmap list =
  let l = Array.to_list m in
  List.map (fun (x, _) -> pmap_of_list (List.filter (fun (x', _) -> x' <> x) l)) l

(* Is [m] a partial homomorphism from A to B?  Checks (1) constants map to
   same-named constants, (2) every fact of A inside dom(m) maps to a fact
   of B.  Uses the (pred, position, element) index of A to find the facts
   touching dom(m). *)
let is_partial_hom a b (m : pmap) =
  let const_ok =
    Array.for_all
      (fun (x, y) ->
        match Instance.const_name a x with
        | Some c -> (
            match Instance.const_opt b c with
            | Some cid -> cid = y
            | None -> false)
        | None -> true)
      m
  in
  const_ok
  && Array.for_all
       (fun (x, _) ->
         (* facts of A touching x with all args in dom(m) *)
         Pred.Set.for_all
           (fun p ->
             let arity = Pred.arity p in
             let rec positions i acc =
               if i >= arity then acc
               else positions (i + 1) (Instance.facts_with_arg a p i x @ acc)
             in
             List.for_all
               (fun f ->
                 let args = Fact.args f in
                 if Array.for_all (fun id -> pmap_mem_src m id) args then
                   let imgs = Array.map (fun id -> Option.get (pmap_find m id)) args in
                   Instance.mem_fact b (Fact.make p imgs)
                 else true)
               (positions 0 []))
           (Instance.preds a))
       m

module Pmap_tbl = Hashtbl

exception Too_large of int

(* Build the family of all partial homs of size <= k extending [seed];
   raise [Too_large] past [budget] maps. *)
let all_partial_homs ?(budget = 2_000_000) a b k (seed : pmap) =
  let fam : (pmap, unit) Pmap_tbl.t = Pmap_tbl.create 1024 in
  let count = ref 0 in
  let a_elems = Instance.elements a and b_elems = Instance.elements b in
  let add m =
    if not (Pmap_tbl.mem fam m) then begin
      incr count;
      if !count > budget then raise (Too_large !count);
      Pmap_tbl.replace fam m ()
    end
  in
  (* enumerate by extension from the empty map; prune non-homs early *)
  let rec grow (m : pmap) =
    if Array.length m < k then
      List.iter
        (fun x ->
          if not (pmap_mem_src m x) then
            List.iter
              (fun y ->
                let m' = pmap_extend m x y in
                if (not (Pmap_tbl.mem fam m')) && is_partial_hom a b m' then begin
                  add m';
                  grow m'
                end)
              b_elems)
        a_elems
  in
  if is_partial_hom a b seed && Array.length seed <= k then begin
    (* include all restrictions of the seed, down to the empty map *)
    let rec down m =
      add m;
      List.iter down (pmap_restrictions m)
    in
    down seed;
    (* grow from every restriction *)
    Pmap_tbl.iter (fun m () -> grow m) (Pmap_tbl.copy fam);
    Some fam
  end
  else None

(* k-consistency fixpoint: delete maps violating forth or closure. *)
let winnow a b k fam =
  let a_elems = Instance.elements a and b_elems = Instance.elements b in
  let changed = ref true in
  while !changed do
    changed := false;
    let doomed = ref [] in
    Pmap_tbl.iter
      (fun (m : pmap) () ->
        let ok_closure =
          List.for_all (fun r -> Pmap_tbl.mem fam r) (pmap_restrictions m)
        in
        let ok_forth =
          Array.length m >= k
          || List.for_all
               (fun x ->
                 pmap_mem_src m x
                 || List.exists
                      (fun y -> Pmap_tbl.mem fam (pmap_extend m x y))
                      b_elems)
               a_elems
        in
        if not (ok_closure && ok_forth) then doomed := m :: !doomed)
      fam;
    if !doomed <> [] then begin
      changed := true;
      List.iter (fun m -> Pmap_tbl.remove fam m) !doomed
    end
  done;
  fam

(* Game-based inclusion: every k-variable infinitary-existential-positive
   property (constants and a distinguished free
   variable allowed) true at (A, a0) also hold at (B, b0)?  Pass
   [~pinned:None] for the untyped (Boolean, no distinguished element)
   variant. *)
let ptp_leq ?budget ~vars:k a pinned_a b pinned_b =
  let seed =
    match (pinned_a, pinned_b) with
    | Some x, Some y -> pmap_of_list [ (x, y) ]
    | None, None -> pmap_of_list []
    | _ -> invalid_arg "Pebble.ptp_leq: pin both sides or neither"
  in
  match all_partial_homs ?budget a b k seed with
  | None -> false
  | Some fam ->
      let fam = winnow a b k fam in
      Pmap_tbl.mem fam seed

(* Positive-k-type equality of two elements of (possibly distinct)
   structures: inclusion both ways. *)
let ptp_equal ?budget ~vars a x b y =
  ptp_leq ?budget ~vars a (Some x) b (Some y)
  && ptp_leq ?budget ~vars b (Some y) a (Some x)
