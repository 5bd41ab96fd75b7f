(** Bounded-depth directional refinement: the scalable equivalence used to
    build quotient structures (Definition 5).  Initial classes distinguish
    constants by name (Remark 1) and unary predicates (colors included
    when materialized); each step refines by the *sets* of
    (relation, direction, class) triples of the neighbours.  Exact for
    bounded-depth directional tree types; validated against the exact
    {!Bddfc_hom.Ptypes} in the test suite; everything built on top is
    re-verified by model checking. *)

open Bddfc_budget
open Bddfc_structure

type mode =
  | Backward (** refine along incoming edges only — exact on chase
                 skeletons, whose backward structure is final *)
  | Bidirectional

type t = {
  graph : Bgraph.t;
  mode : mode;
  depth : int;
  cls : int array;
  num_classes : int;
  tripped : Budget.resource option;
      (** a budget stopped the refinement early; [cls] is the partition of
          the last completed step (coarser, hence still sound) *)
}

val compute : ?mode:mode -> ?budget:Budget.t -> depth:int -> Bgraph.t -> t
val num_classes : t -> int
val equivalent : t -> Element.id -> Element.id -> bool
val classes : t -> (int * Element.id list) list
