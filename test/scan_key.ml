(* Test-only oracle for lightness keys: the original permutation key.
   Every permutation of the free elements renders the induced
   substructure by scanning *all* instance facts, and the key is the
   least rendering, so a natural coloring built from it costs
   O(elements x facts x perms) and stops at 8 free elements.  The
   library computes its forms by individualization-refinement
   (Canonical.least_encoding) over the facts filed under each
   neighbourhood; the differential tests hold it to this definition:
   same partition of the elements, same lightness numbering. *)

open Bddfc_logic
open Bddfc_structure

let rec permutations = function
  | [] -> [ [] ]
  | l ->
      List.concat_map
        (fun x ->
          let rest = List.filter (fun y -> y <> x) l in
          List.map (fun p -> x :: p) (permutations rest))
        l

let render inst elts (position : Element.id -> string) =
  let member = Element.Id_set.of_list elts in
  let lines = ref [] in
  Instance.iter_facts
    (fun f ->
      if Array.for_all (fun id -> Element.Id_set.mem id member) (Fact.args f)
      then begin
        let args = String.concat "," (List.map position (Fact.elements f)) in
        lines := (Pred.name (Fact.pred f) ^ "(" ^ args ^ ")") :: !lines
      end)
    inst;
  String.concat ";" (List.sort_uniq String.compare !lines)

let key ?root inst elts =
  let is_root id = match root with Some r -> r = id | None -> false in
  let free =
    List.filter
      (fun e -> not (Instance.is_const inst e) && not (is_root e))
      (List.sort_uniq compare elts)
  in
  if List.length free > 8 then
    invalid_arg "Scan_key.key: too many free elements (limit 8)";
  let elts = List.sort_uniq compare elts in
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
    List.map (fun perm -> render inst elts (position perm)) (permutations free)
  in
  match List.sort String.compare candidates with
  | best :: _ -> best
  | [] -> assert false

(* The neighbourhood P(e) u C_con of Definition 14, sorted. *)
let neighbourhood inst g e =
  Element.Id_set.elements (Bgraph.pred_set g e) @ Instance.constants inst
  |> List.sort_uniq compare

(* Per element, the scan key of its neighbourhood rooted at itself. *)
let keys inst =
  let g = Bgraph.make inst in
  Array.init (Instance.num_elements inst) (fun e ->
      key ~root:e inst (neighbourhood inst g e))
