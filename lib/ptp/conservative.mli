(** Conservativity (Definitions 8 and 9): a coloring is n-conservative up
    to size m when the quotient map preserves positive m-types over the
    base signature pointwise.  The preservation check is exact
    ({!Bddfc_hom.Ptypes}); the quotient can be built exactly
    (Definition 5 verbatim) or by refinement. *)

open Bddfc_structure

type check = {
  conservative : bool;
  failures : (Element.id * [ `Gained | `Lost ]) list;
}

val check_quotient :
  ?hc:Bddfc_hom.Hc.mode -> m:int -> Instance.t -> Quotient.t -> check

val check_exact :
  ?hc:Bddfc_hom.Hc.mode -> m:int -> n:int -> Instance.t -> Coloring.t -> check

val check_refine :
  ?hc:Bddfc_hom.Hc.mode -> m:int -> n:int -> Instance.t -> Coloring.t -> check

val find_conservative_n :
  ?hc:Bddfc_hom.Hc.mode ->
  m:int -> max_n:int -> Instance.t -> Coloring.t -> int option
(** The least n making the coloring n-conservative up to m, mirroring the
    existential quantifier of Definition 9, with the exact quotient of
    Definition 5. *)
