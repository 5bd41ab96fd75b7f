(* Test-only oracles for Containment: the original structural decision,
   and the host signature as first written.

   [specific] is contained in [general] iff [general] maps into the
   canonical instance of [specific] (its body with every variable frozen
   into a fresh constant by [Cq.freeze]), answer variables positionally
   onto the frozen answer variables.  This builds that [Instance] and
   asks [Eval] for a solution, so it shares no search code with the
   library's int-coded matcher: the containment fuzzing in test_hc.ml
   and the rewriting differentials in test_rewrite.ml (through
   reference_rewrite.ml) hold the matcher to it.

   [hosts] is the host half of [Containment.signature] as it was first
   written: every frozen name built as a string and hashed, every pair
   of term occurrences compared for a join, and the codes gathered in a
   list that is sorted through an array.  It reads the body frozen as
   [Cq.freeze] spells it, each term a string, so it shares no coding
   with the library.  test_hc.ml requires the library's host
   arrays to equal it element for element, so that
   [containment.index_rejects] cannot drift. *)

open Bddfc_logic
open Bddfc_structure
open Bddfc_hom

let subsumes ~(general : Cq.t) (specific : Cq.t) =
  List.length (Cq.answer general) = List.length (Cq.answer specific)
  &&
  let atoms, frz = Cq.freeze specific in
  let inst = Instance.of_atoms atoms in
  let init =
    List.fold_left2
      (fun acc xg xs ->
        match Subst.find_opt xs frz with
        | Some (Term.Cst c) -> (
            match Instance.const_opt inst c with
            | Some id -> Smap.add xg id acc
            | None -> acc)
        | _ -> acc)
      Smap.empty (Cq.answer general) (Cq.answer specific)
  in
  Eval.satisfiable ~init inst (Cq.body general)

(* ---------------- the host signature ---------------- *)

let mix h x =
  let h = (h lxor x) * 0x1f3d5b799e3779b9 in
  h lxor (h lsr 29)

let hash_string h s =
  let h = ref (mix h (String.length s)) in
  String.iter (fun c -> h := mix !h (Char.code c)) s;
  !h

let const_slot h hc = mix (mix h 1) hc
let var_slot h first = mix (mix h 2) first
let shape_start pred_id = mix 0x2545f4914f6cdd1d pred_id
let shape_code h = h land max_int
let join_pos_bound = 32
let join_pred_bound = 1 lsl 23

let occurrence pred_id i =
  if i < join_pos_bound && pred_id < join_pred_bound then
    (pred_id * join_pos_bound) + i
  else -1

let join_code (o1 : int) (o2 : int) =
  let lo = min o1 o2 and hi = max o1 o2 in
  -1 - ((lo * (join_pred_bound * join_pos_bound)) + hi)

let sorted_unique (l : int list) =
  let a = Array.of_list l in
  Array.sort (fun (x : int) y -> compare x y) a;
  let n = Array.length a in
  if n = 0 then a
  else begin
    let k = ref 1 in
    for i = 1 to n - 1 do
      if a.(i) <> a.(!k - 1) then begin
        a.(!k) <- a.(i);
        incr k
      end
    done;
    Array.sub a 0 !k
  end

(* A term of the frozen body, as [Cq.freeze] spells it. *)
let spelling = function Term.Cst c -> c | Term.Var x -> Cq.frozen_name x

let atom_hosts pred_id (b : string array) acc =
  let n = Array.length b in
  let var_start = Array.make n false in
  let rec go i h acc =
    if i = n then shape_code h :: acc
    else begin
      let acc = go (i + 1) (const_slot h (hash_string 0 b.(i))) acc in
      var_start.(i) <- true;
      let acc = go (i + 1) (var_slot h i) acc in
      var_start.(i) <- false;
      let acc = ref acc in
      for j = 0 to i - 1 do
        if var_start.(j) && String.equal b.(j) b.(i) then
          acc := go (i + 1) (var_slot h j) !acc
      done;
      !acc
    end
  in
  go 0 (shape_start pred_id) acc

let hosts (q : Cq.t) =
  let body = Array.of_list (Cq.body q) in
  let terms =
    Array.map (fun a -> Array.of_list (List.map spelling (Atom.args a))) body
  in
  let preds = Array.map (fun a -> Pred.id (Atom.pred a)) body in
  let shapes = ref [] in
  Array.iteri (fun i b -> shapes := atom_hosts preds.(i) b !shapes) terms;
  let vals = Array.concat (Array.to_list terms) in
  let occs =
    Array.concat
      (Array.to_list
         (Array.mapi
            (fun i b -> Array.mapi (fun p _ -> occurrence preds.(i) p) b)
            terms))
  in
  let acc = ref !shapes in
  let n = Array.length vals in
  for i = 0 to n - 1 do
    let oi = occs.(i) in
    if oi >= 0 then
      for j = i + 1 to n - 1 do
        let oj = occs.(j) in
        if oj >= 0 && oj <> oi && String.equal vals.(j) vals.(i) then
          acc := join_code oi oj :: !acc
      done
  done;
  sorted_unique !acc
