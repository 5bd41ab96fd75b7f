(* Homomorphisms between instances.  Constants are rigid: a constant named
   c in the source must map to the constant named c in the target.
   Labelled nulls behave as variables. *)

open Bddfc_logic
open Bddfc_structure

type mapping = Element.id Element.Id_map.t

let var_of_null id = "_h" ^ string_of_int id

(* Render the source's facts as query atoms: nulls become variables. *)
let atoms_of_source src =
  List.map
    (fun f ->
      let term_of id =
        match Instance.const_name src id with
        | Some c -> Term.Cst c
        | None -> Term.Var (var_of_null id)
      in
      Atom.make (Fact.pred f) (List.map term_of (Fact.elements f)))
    (Instance.facts src)

let mapping_of_binding src tgt binding =
  List.fold_left
    (fun acc id ->
      match Instance.const_name src id with
      | Some c -> (
          match Instance.const_opt tgt c with
          | Some cid -> Element.Id_map.add id cid acc
          | None -> acc)
      | None -> (
          match Smap.find_opt (var_of_null id) binding with
          | Some img -> Element.Id_map.add id img acc
          | None -> acc))
    Element.Id_map.empty (Instance.elements src)

(* Find a homomorphism from [src] to [tgt]; [fixed] pre-binds null images. *)
let find ?(fixed = Element.Id_map.empty) ?engine src tgt =
  (* constants of src must exist in tgt with the same name *)
  let const_ok =
    List.for_all
      (fun id ->
        match Instance.const_name src id with
        | Some c -> Instance.const_opt tgt c <> None
        | None -> true)
      (Instance.constants src)
  in
  if not const_ok then None
  else begin
    let init =
      Element.Id_map.fold
        (fun id img acc -> Smap.add (var_of_null id) img acc)
        fixed Smap.empty
    in
    match Eval.first_solution ~init ?engine tgt (atoms_of_source src) with
    | Some binding -> Some (mapping_of_binding src tgt binding)
    | None -> None
  end

let exists ?engine src tgt = find ?engine src tgt <> None

(* Check that a given mapping is a homomorphism. *)
let is_homomorphism src tgt mapping =
  let image id =
    match Element.Id_map.find_opt id mapping with
    | Some img -> Some img
    | None -> (
        match Instance.const_name src id with
        | Some c -> Instance.const_opt tgt c
        | None -> None)
  in
  List.for_all
    (fun f ->
      let imgs = Array.map image (Fact.args f) in
      if Array.exists (fun o -> o = None) imgs then false
      else
        Instance.mem_fact tgt
          (Fact.make (Fact.pred f) (Array.map Option.get imgs)))
    (Instance.facts src)

(* Apply a mapping to an instance, producing the homomorphic image inside a
   fresh instance whose elements are the image elements of [tgt]. *)
let image src tgt mapping =
  let img = Instance.create () in
  let translate = Hashtbl.create 16 in
  let elt_of tgt_id =
    match Hashtbl.find_opt translate tgt_id with
    | Some e -> e
    | None ->
        let e =
          match Instance.const_name tgt tgt_id with
          | Some c -> Instance.const img c
          | None ->
              Instance.fresh_null img ~birth:0 ~rule:"image" ~parent:None
        in
        Hashtbl.replace translate tgt_id e;
        e
  in
  let map_id id =
    match Element.Id_map.find_opt id mapping with
    | Some t -> elt_of t
    | None -> (
        match Instance.const_name src id with
        | Some c -> Instance.const img c
        | None -> invalid_arg "Hom.image: unmapped null")
  in
  Instance.iter_facts
    (fun f ->
      ignore
        (Instance.add_fact img
           (Fact.make (Fact.pred f) (Array.map map_id (Fact.args f)))))
    src;
  img

(* An endomorphism of [inst] avoiding element [e] in its image, fixing all
   constants: the basic step of core computation. *)
let retraction_avoiding inst e =
  if Instance.is_const inst e then None
  else begin
    (* Search for a hom inst -> inst with the null e mapped elsewhere.  We
       enumerate candidate images for e and fix them one by one. *)
    let rec try_images = function
      | [] -> None
      | img :: rest ->
          if img = e then try_images rest
          else begin
            match
              find ~fixed:(Element.Id_map.singleton e img) inst inst
            with
            | Some m ->
                (* ensure e is not in the image of anything *)
                let hits_e =
                  Element.Id_map.exists (fun _ v -> v = e) m
                in
                if hits_e then try_images rest else Some m
            | None -> try_images rest
          end
    in
    try_images (Instance.elements inst)
  end

(* The core of a small instance: repeatedly fold away removable nulls.
   Exponential in the worst case; intended for small structures. *)
let core inst =
  let current = ref (Instance.copy inst) in
  let progress = ref true in
  while !progress do
    progress := false;
    let elems = Instance.elements !current in
    let rec loop = function
      | [] -> ()
      | e :: rest -> (
          match retraction_avoiding !current e with
          | Some m ->
              current := image !current !current m;
              progress := true
          | None -> loop rest)
    in
    loop (List.filter (Instance.is_null !current) elems)
  done;
  !current
