(** Quotient structures M_n(C) (Definition 5): elements are equivalence
    classes, relations are the projections of the facts of C — the minimal
    relations making the quotient map a homomorphism.  Constant classes
    must be singletons and keep their names. *)

open Bddfc_structure

type t = {
  source : Instance.t;
  quotient : Instance.t;
  cls : int array;
  repr : Element.id array;
  members : Element.id list array;
}

val make : Instance.t -> int array -> num_classes:int -> t
(** @raise Invalid_argument when a constant is identified with another
    element. *)

val project : t -> Element.id -> Element.id
(** The projection q_n. *)

val of_refinement : Instance.t -> Refine.t -> t
