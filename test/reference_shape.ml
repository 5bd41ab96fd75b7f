(* Test-only reference for the shape part of Containment's signatures:
   the per-pair atom-shape scan the containment memo used to run.

   [shape_rejects ~general specific] is [true] only when some atom of
   [general] has no atom of [specific] with the same predicate, the
   same constants at [general]'s constant positions and equal terms
   wherever [general] repeats a variable.  It never counts atoms, since
   homomorphisms need not be injective.  Terms of [specific] are
   compared as [Cq.freeze] would leave them, so a constant spelled like
   a frozen variable meets that variable.  test_hc.ml holds the
   signatures' shape features to this scan, pair for pair. *)

open Bddfc_logic

let shape_rejects ~(general : Cq.t) (specific : Cq.t) =
  let same_frozen t u =
    match (t, u) with
    | Term.Var x, Term.Var y -> String.equal x y
    | Term.Cst c, Term.Cst d -> String.equal c d
    | Term.Var x, Term.Cst c | Term.Cst c, Term.Var x -> String.equal c (Cq.frozen_name x)
  in
  let rec fits seen gs ss =
    match (gs, ss) with
    | [], [] -> true
    | (Term.Cst _ as g) :: gs, s :: ss -> same_frozen g s && fits seen gs ss
    | Term.Var x :: gs, s :: ss -> (
        match List.assoc_opt x seen with
        | Some s' -> same_frozen s s' && fits seen gs ss
        | None -> fits ((x, s) :: seen) gs ss)
    | _ -> false
  in
  let has_target a =
    List.exists
      (fun b ->
        Pred.equal (Atom.pred a) (Atom.pred b)
        && fits [] (Atom.args a) (Atom.args b))
      (Cq.body specific)
  in
  not (List.for_all has_target (Cq.body general))
