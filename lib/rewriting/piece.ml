(* Piece unification: one backward-rewriting step of a conjunctive query
   with a single-head rule (TGD or datalog).

   Given a query q and a rule body -> exists Z. H, a *piece* is a nonempty
   subset S of q's atoms, all unifiable with H under a common mgu theta,
   such that for every existential variable z of the rule the unification
   class of z contains

     - no constant,
     - no frontier variable of the rule,
     - no other existential variable,
     - no query variable occurring in q outside S.

   The rewriting replaces S by theta(body).  Answer variables are expected
   to be frozen into constants by the caller (Rewrite), which makes the
   conditions above protect them automatically. *)

open Bddfc_logic

let subsets_upto k l =
  (* nonempty subsets of [l] of size <= k *)
  let rec go l =
    match l with
    | [] -> [ [] ]
    | x :: rest ->
        let without = go rest in
        let with_x =
          List.filter_map
            (fun s -> if List.length s < k then Some (x :: s) else None)
            without
        in
        with_x @ without
  in
  List.filter (fun s -> s <> []) (go l)

(* Occurrences of variable [v] in atoms. *)
let occurs_in v atoms =
  List.exists (fun a -> List.mem (Term.Var v) (Atom.args a)) atoms

(* The largest piece tried: at most this many query atoms unify with one
   rule head in a step. *)
let max_piece = 5

let one_steps rule (q : Cq.t) =
  assert (Rule.is_single_head rule);
  let rule = Rule.rename_apart rule in
  let head = List.hd (Rule.head rule) in
  let exvars = Rule.SS.elements (Rule.existential_vars rule) in
  let frontier = Rule.SS.elements (Rule.frontier rule) in
  let candidates =
    List.filter (fun a -> Pred.equal (Atom.pred a) (Atom.pred head)) (Cq.body q)
  in
  let pieces = subsets_upto max_piece candidates in
  List.filter_map
    (fun piece ->
      (* common unifier of every atom of the piece with the head *)
      let theta =
        List.fold_left
          (fun acc a ->
            match acc with
            | None -> None
            | Some s -> Unify.atoms ~init:s head a)
          (Some Subst.empty) piece
      in
      match theta with
      | None -> None
      | Some theta -> (
          let resolve t = Subst.resolve_term theta t in
          let z_images = List.map (fun z -> resolve (Term.Var z)) exvars in
          let frontier_images =
            List.map (fun y -> resolve (Term.Var y)) frontier
          in
          let rest_atoms =
            List.filter (fun a -> not (List.memq a piece)) (Cq.body q)
          in
          let distinct_pairwise l =
            let rec go = function
              | [] -> true
              | x :: rest -> (not (List.exists (Term.equal x) rest)) && go rest
            in
            go l
          in
          let sound =
            List.for_all
              (fun img ->
                match img with
                | Term.Cst _ -> false
                | Term.Var v ->
                    (* the class of z must stay inside the piece: no query
                       variable of the class occurs in the rest of q *)
                    let class_vars =
                      List.filter_map
                        (fun x ->
                          match Subst.resolve_term theta (Term.Var x) with
                          | Term.Var v' when String.equal v v' -> Some x
                          | _ -> None)
                        (Cq.SS.elements (Cq.all_vars q))
                    in
                    not (List.exists (fun x -> occurs_in x rest_atoms) class_vars))
              z_images
            && distinct_pairwise z_images
            && List.for_all
                 (fun zi -> not (List.exists (Term.equal zi) frontier_images))
                 z_images
          in
          if not sound then None
          else begin
            let solved = Unify.solved theta in
            let body' =
              Subst.apply_atoms solved (Rule.body rule @ rest_atoms)
            in
            Some (Cq.boolean body')
          end))
    pieces
