(* Test-only oracle for Containment: the original structural decision.

   [specific] is contained in [general] iff [general] maps into the
   canonical instance of [specific] (its body with every variable frozen
   into a fresh constant by [Cq.freeze]), answer variables positionally
   onto the frozen answer variables.  This builds that [Instance] and
   asks [Eval] for a solution, so it shares no search code with the
   library's int-coded matcher: the containment fuzzing in test_hc.ml
   and the rewriting differentials in test_rewrite.ml (through
   reference_rewrite.ml) hold the matcher to it. *)

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
