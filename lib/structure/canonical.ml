(* Canonical forms and isomorphism for *small* substructures.

   Used for the "lightness" component of natural colorings
   (Definition 14): two elements get the same lightness iff the structures
   C |` (P(e) u C_con) are isomorphic (fixing constants pointwise and the
   distinguished element e).  The predecessor sets P(e) are tiny —
   Lemma 3(iv) bounds their size by |Sigma| + 1 — so brute force over
   permutations is both exact and cheap.

   Cost model: a key renders its induced facts once per permutation of
   the free elements, so one key costs |facts| x |perms|.  [key_of_facts]
   takes the induced facts from the caller (the natural coloring collects
   them per element from facts grouped by their non-constant arguments,
   making a whole coloring cost the sum over e of |facts induced on
   P(e) u C_con| x |perms|); [key] finds them with one scan of the
   instance per call. *)

open Bddfc_logic

let rec permutations = function
  | [] -> [ [] ]
  | l ->
      List.concat_map
        (fun x ->
          let rest = List.filter (fun y -> y <> x) l in
          List.map (fun p -> x :: p) (permutations rest))
        l

let render facts (position : Element.id -> string) =
  let line f =
    let args = String.concat "," (List.map position (Fact.elements f)) in
    Pred.name (Fact.pred f) ^ "(" ^ args ^ ")"
  in
  String.concat ";" (List.sort_uniq String.compare (List.map line facts))

(* The canonical key of [key] from the induced facts alone.  Constants
   render by name and are fixed; the optional [root] renders as a
   distinguished token and is fixed; the remaining elements are
   canonicalized by minimizing over all their orderings. *)
let key_of_facts ?root inst elts facts =
  let is_root id = match root with Some r -> r = id | None -> false in
  let free =
    List.filter
      (fun e -> not (Instance.is_const inst e) && not (is_root e))
      (List.sort_uniq compare elts)
  in
  if List.length free > 8 then
    invalid_arg "Canonical.key: too many free elements (limit 8)";
  let position perm =
    let tbl = Hashtbl.create 8 in
    List.iteri (fun i e -> Hashtbl.replace tbl e ("#" ^ string_of_int i)) perm;
    fun id ->
      if is_root id then "ROOT"
      else
        match Instance.const_name inst id with
        | Some c -> "c:" ^ c
        | None -> (
            match Hashtbl.find_opt tbl id with
            | Some s -> s
            | None -> assert false)
  in
  let candidates =
    List.map (fun perm -> render facts (position perm)) (permutations free)
  in
  match List.sort String.compare candidates with
  | best :: _ -> best
  | [] -> assert false

(* Two calls return equal strings iff the induced substructures are
   isomorphic under a bijection fixing constants (by name) and mapping
   root to root. *)
let key ?root inst elts =
  let member = Element.Id_set.of_list elts in
  let induced =
    List.filter
      (fun f ->
        Array.for_all (fun id -> Element.Id_set.mem id member) (Fact.args f))
      (Instance.facts inst)
  in
  key_of_facts ?root inst elts induced

(* Isomorphism of two small induced substructures, fixing constants by
   name and mapping [root1] to [root2]. *)
let iso_with_roots inst1 elts1 root1 inst2 elts2 root2 =
  List.length elts1 = List.length elts2
  && String.equal (key ~root:root1 inst1 elts1) (key ~root:root2 inst2 elts2)

(* Isomorphism of two small structures in full (constants fixed by name). *)
let iso_small inst1 elts1 inst2 elts2 =
  List.length elts1 = List.length elts2
  && String.equal (key inst1 elts1) (key inst2 elts2)
