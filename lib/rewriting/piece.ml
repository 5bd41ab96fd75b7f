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

   The rewriting replaces S by theta(body).  Only minimal pieces are
   built, by closure (single-piece unifiers, as in König, Leclère, Mugnier
   and Thomazo, "Sound, complete and minimal UCQ-rewriting for existential
   rules", Semantic Web 6(5), 2015): each atom with the head's predicate
   seeds a piece, and every atom outside it that an existential's class
   reaches joins it and is unified in turn, until no class reaches out or
   a condition fails.  A step thus costs one closure per candidate atom,
   and no piece size is capped.  Larger pieces are unions of minimal ones
   and add nothing to the saturated rewriting.  Answer variables are
   expected to be frozen into constants by the caller (Rewrite), which
   makes the conditions above protect them automatically. *)

open Bddfc_logic

let rec distinct = function
  | [] -> true
  | x :: rest -> (not (List.exists (Term.equal x) rest)) && distinct rest

let one_steps rule (q : Cq.t) =
  assert (Rule.is_single_head rule);
  let rule = Rule.rename_apart rule in
  let head = List.hd (Rule.head rule) in
  let var x = Term.Var x in
  let exvars = List.map var (Rule.SS.elements (Rule.existential_vars rule)) in
  let frontier = List.map var (Rule.SS.elements (Rule.frontier rule)) in
  let atoms = Array.of_list (Cq.body q) in
  let n = Array.length atoms in
  let qvars = Cq.SS.elements (Cq.all_vars q) in
  (* the atoms each query variable occurs in *)
  let occurs = Hashtbl.create 16 in
  Array.iteri
    (fun i a ->
      List.iter
        (function Term.Var x -> Hashtbl.add occurs x i | Term.Cst _ -> ())
        (Atom.args a))
    atoms;
  (* The closure of the piece seeded by atom [seed]: its membership and
     unifier, or [None] when some class breaks a condition. *)
  let closure seed =
    let piece = Array.make n false in
    piece.(seed) <- true;
    let rec grow theta =
      let resolve t = Subst.resolve_term theta t in
      let z_images = List.map resolve exvars in
      let sound =
        List.for_all (function Term.Cst _ -> false | Term.Var _ -> true)
          z_images
        && distinct z_images
        && not
             (List.exists
                (fun y -> List.exists (Term.equal (resolve y)) z_images)
                frontier)
      in
      if not sound then None
      else
        (* the atoms outside the piece that an existential's class reaches *)
        let reached =
          List.concat_map
            (fun x ->
              if List.exists (Term.equal (resolve (var x))) z_images then
                List.filter (fun i -> not piece.(i)) (Hashtbl.find_all occurs x)
              else [])
            qvars
        in
        if reached = [] then Some (piece, theta)
        else
          let theta =
            List.fold_left
              (fun acc i ->
                match acc with
                | None -> None
                | Some s when piece.(i) -> Some s
                | Some s ->
                    piece.(i) <- true;
                    Unify.atoms ~init:s head atoms.(i))
              (Some theta) reached
          in
          Option.bind theta grow
    in
    Option.bind (Unify.atoms head atoms.(seed)) grow
  in
  (* Two seeds can close to the same piece; it rewrites once. *)
  let seen = ref [] in
  List.filter_map
    (fun seed ->
      match closure seed with
      | None -> None
      | Some (piece, _) when List.mem piece !seen -> None
      | Some (piece, theta) ->
          seen := piece :: !seen;
          let rest =
            List.filteri (fun i _ -> not piece.(i)) (Cq.body q)
          in
          let solved = Unify.solved theta in
          Some (Cq.boolean (Subst.apply_atoms solved (Rule.body rule @ rest))))
    (List.init n Fun.id)
