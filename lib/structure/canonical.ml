(* Canonical forms and isomorphism for small substructures.

   Used for the "lightness" component of natural colorings
   (Definition 14): two elements get the same lightness iff the structures
   C |` (P(e) u C_con) are isomorphic (fixing constants pointwise and the
   distinguished element e).

   The form works on integer facts [| pred code; arg codes |]: codes
   [0, n) are the free elements, negative codes are fixed (the root and
   the constants).  It is found by individualization-refinement, in the
   style of nauty:

     - colour refinement splits the free elements by their signatures,
       the sorted (pred code, position, argument colours) of the facts
       that contain them; cells are ordered by signature, so the
       colouring is equivariant;
     - while a cell is not a singleton, each member of the first such
       cell is individualized in turn and the colouring refined again.
       A member is skipped when an automorphism that fixes the
       individualized prefix maps it to a member already tried, since
       its subtree is the image of that member's: twins (elements whose
       transposition maps the fact set onto itself) are found up front,
       and two leaves that encode alike reveal one more automorphism;
     - every leaf is a discrete colouring, hence a labelling of the free
       elements; the form is the least sorted, flattened fact list over
       all leaves.

   Equal forms iff isomorphic: the search tree is a function of the
   isomorphism class, pruning never drops the least leaf, and a leaf's
   encoding is the fact set under a bijection.  Cost model: one
   refinement round costs O(|facts| x arity + n log n); rigid structures
   (the skeletons' case) never branch, and n <= 1 needs no refinement at
   all — one sort of the facts.  There is no cap on n. *)

open Bddfc_logic

(* Lexicographic, shorter first on a common prefix. *)
let compare_ints (a : int array) (b : int array) =
  let la = Array.length a and lb = Array.length b in
  let rec go i =
    if i = la || i = lb then Int.compare la lb
    else
      let c = Int.compare a.(i) b.(i) in
      if c <> 0 then c else go (i + 1)
  in
  go 0

module Table = Hashtbl.Make (struct
  type t = int array

  let equal (a : t) (b : t) = compare_ints a b = 0

  let hash (a : t) =
    let h = ref (Array.length a) in
    Array.iter (fun x -> h := (!h * 65599) + x) a;
    !h land max_int
end)

(* Sort a fresh array of facts in place, drop duplicates, flatten. *)
let flatten fs =
  let len = Array.length fs in
  Array.stable_sort compare_ints fs;
  let keep i = i = 0 || compare_ints fs.(i - 1) fs.(i) <> 0 in
  let total = ref 0 in
  for i = 0 to len - 1 do
    if keep i then total := !total + Array.length fs.(i)
  done;
  let out = Array.make !total 0 and pos = ref 0 in
  for i = 0 to len - 1 do
    if keep i then begin
      let f = fs.(i) in
      Array.blit f 0 out !pos (Array.length f);
      pos := !pos + Array.length f
    end
  done;
  out

(* The facts under a labelling of the free codes, flattened. *)
let encode lab facts =
  flatten
    (Array.map
       (fun f ->
         Array.mapi (fun j x -> if j = 0 || x < 0 then x else lab.(x)) f)
       facts)

(* Colours are cell start indices: an element's colour is the number of
   free elements in strictly smaller cells.  One round re-ranks by
   (colour, signature); rounds repeat until the cell count is stable. *)
let refine n facts col =
  let signature col =
    let sigs = Array.make n [] in
    Array.iter
      (fun f ->
        let len = Array.length f in
        Array.iteri
          (fun j x ->
            if j > 0 && x >= 0 then begin
              (* (pred code, position, argument colours) *)
              let occ = Array.make (len + 1) f.(0) in
              occ.(1) <- j;
              for k = 1 to len - 1 do
                let a = f.(k) in
                occ.(k + 1) <- (if a < 0 then a else col.(a))
              done;
              sigs.(x) <- occ :: sigs.(x)
            end)
          f)
      facts;
    Array.map
      (fun l -> Array.of_list (List.sort compare_ints l))
      sigs
  in
  let rec round col cells =
    let sigs = signature col in
    let order = Array.init n Fun.id in
    let cmp a b =
      let c = Int.compare col.(a) col.(b) in
      if c <> 0 then c else compare sigs.(a) sigs.(b)
    in
    Array.stable_sort cmp order;
    let col' = Array.make n 0 in
    let cells' = ref 1 in
    Array.iteri
      (fun i x ->
        if i = 0 then col'.(x) <- 0
        else
          let prev = order.(i - 1) in
          if cmp prev x = 0 then col'.(x) <- col'.(prev)
          else begin
            col'.(x) <- i;
            incr cells'
          end)
      order;
    if !cells' = cells || !cells' = n then col' else round col' !cells'
  in
  let cells = List.length (List.sort_uniq Int.compare (Array.to_list col)) in
  if cells = n then col else round col cells

(* The first non-singleton cell's colour, if any. *)
let target_cell n col =
  let size = Array.make n 0 in
  Array.iter (fun c -> size.(c) <- size.(c) + 1) col;
  let rec find c = if c >= n then None else if size.(c) > 1 then Some c else find (c + 1) in
  find 0

(* Orbit representatives of [0, n) under the group the permutations
   generate (union-find, flattened). *)
let orbits n perms =
  let rep = Array.init n Fun.id in
  let rec find x = if rep.(x) = x then x else find rep.(x) in
  List.iter
    (fun g ->
      Array.iteri
        (fun x y ->
          let a = find x and b = find y in
          if a <> b then rep.(max a b) <- min a b)
        g)
    perms;
  Array.init n find

let least_encoding n facts =
  let facts = Array.of_list facts in
  if n <= 1 then flatten facts
  else begin
    (* twin classes, computed on the first branching only *)
    let twin =
      lazy
        (let identity = encode (Array.init n Fun.id) facts in
         let cls = Array.init n Fun.id in
         let root_col = refine n facts (Array.make n 0) in
         for u = 0 to n - 1 do
           if cls.(u) = u then
             for v = u + 1 to n - 1 do
               if cls.(v) = v && root_col.(u) = root_col.(v) then begin
                 let swap = Array.init n Fun.id in
                 swap.(u) <- v;
                 swap.(v) <- u;
                 if compare_ints (encode swap facts) identity = 0 then
                   cls.(v) <- u
               end
             done
         done;
         cls)
    in
    (* the least leaf with its labelling, and the automorphisms met: a
       leaf that encodes like the best one differs from it by one *)
    let best = ref None and autos = ref [] in
    let leaf col =
      let code = encode col facts in
      match !best with
      | None -> best := Some (code, col)
      | Some (b, bcol) ->
          let c = compare_ints code b in
          if c < 0 then best := Some (code, col)
          else if c = 0 then begin
            let inv = Array.make n 0 in
            Array.iteri (fun y p -> inv.(p) <- y) bcol;
            autos := Array.map (fun p -> inv.(p)) col :: !autos
          end
    in
    (* [fixed] is the individualized prefix: an automorphism that fixes
       it pointwise maps the subtree of one cell member onto another's *)
    let rec search fixed col =
      let col = refine n facts col in
      match target_cell n col with
      | None -> leaf col
      | Some c ->
          let twin = Lazy.force twin in
          let tried = ref [] in
          for v = 0 to n - 1 do
            if col.(v) = c then begin
              let orbit =
                orbits n
                  (List.filter
                     (fun g -> List.for_all (fun x -> g.(x) = x) fixed)
                     !autos)
              in
              if
                not
                  (List.exists
                     (fun u -> twin.(u) = twin.(v) || orbit.(u) = orbit.(v))
                     !tried)
              then begin
                tried := v :: !tried;
                search (v :: fixed)
                  (Array.mapi
                     (fun w x -> if x = c && w <> v then c + 1 else x)
                     col)
              end
            end
          done
    in
    search [] (Array.make n 0);
    fst (Option.get !best)
  end

(* The string key: the least encoding with constants ranked by name among
   those the induced facts mention, rendered with the names back in.  The
   ranks, not element ids, make the form comparable across instances. *)
let key ?root inst elts =
  let member = Element.Id_set.of_list elts in
  let induced =
    List.filter
      (fun f ->
        Array.for_all (fun id -> Element.Id_set.mem id member) (Fact.args f))
      (Instance.facts inst)
  in
  let is_root id = match root with Some r -> r = id | None -> false in
  let names =
    List.concat_map
      (fun f ->
        List.filter_map
          (fun a -> if is_root a then None else Instance.const_name inst a)
          (Fact.elements f))
      induced
    |> List.sort_uniq String.compare |> Array.of_list
  in
  let rank name =
    let rec find i = if String.equal names.(i) name then i else find (i + 1) in
    find 0
  in
  let local = Hashtbl.create 8 and preds = Hashtbl.create 8 in
  let code a =
    if is_root a then -1
    else
      match Instance.const_name inst a with
      | Some c -> -2 - rank c
      | None -> (
          match Hashtbl.find_opt local a with
          | Some i -> i
          | None ->
              let i = Hashtbl.length local in
              Hashtbl.replace local a i;
              i)
  in
  let facts =
    List.map
      (fun f ->
        let p = Fact.pred f in
        Hashtbl.replace preds (Pred.id p) p;
        Array.append [| Pred.id p |] (Array.map code (Fact.args f)))
      induced
  in
  let form = least_encoding (Hashtbl.length local) facts in
  let token x =
    if x = -1 then "ROOT"
    else if x < 0 then "c:" ^ names.(-2 - x)
    else "#" ^ string_of_int x
  in
  let buf = Buffer.create 64 in
  let i = ref 0 in
  while !i < Array.length form do
    let p = Hashtbl.find preds form.(!i) in
    if !i > 0 then Buffer.add_char buf ';';
    Buffer.add_string buf (Pred.name p);
    Buffer.add_char buf '(';
    for j = 1 to Pred.arity p do
      if j > 1 then Buffer.add_char buf ',';
      Buffer.add_string buf (token form.(!i + j))
    done;
    Buffer.add_char buf ')';
    i := !i + 1 + Pred.arity p
  done;
  Buffer.contents buf

(* Isomorphism of two small induced substructures, fixing constants by
   name and mapping [root1] to [root2]. *)
let iso_with_roots inst1 elts1 root1 inst2 elts2 root2 =
  List.length elts1 = List.length elts2
  && String.equal (key ~root:root1 inst1 elts1) (key ~root:root2 inst2 elts2)

(* Isomorphism of two small structures in full (constants fixed by name). *)
let iso_small inst1 elts1 inst2 elts2 =
  List.length elts1 = List.length elts2
  && String.equal (key inst1 elts1) (key inst2 elts2)
