(** Colorings (Definitions 6, 7, 13, 14): one color atom K^l_h per
    element, where h is the hue and l the lightness.  Natural colorings
    give different hues to elements within ancestor-distance m and equal
    lightness only to elements with isomorphic predecessor
    neighbourhoods. *)

open Bddfc_logic
open Bddfc_structure

type t = {
  colored : Instance.t; (** C-bar: a copy of C plus one color atom per elt *)
  hue : int array;
  lightness : int array;
  num_hues : int;
  num_lightnesses : int;
}

val color_preds : Instance.t -> Pred.Set.t

val uncolor : Instance.t -> Instance.t
(** Strip color atoms: [C-bar |` Sigma]. *)

val materialize : Instance.t -> int array -> int array -> t
(** Build a coloring from explicit hue and lightness arrays. *)

val neighbourhood_keys : Instance.t -> int array array
(** Per element e, the canonical form ({!Canonical.least_encoding}) of
    [C |` (P(e) u C_con)] with root e, constants coded by element id:
    the arrays [natural] interns into lightness.  Two forms are equal iff
    the neighbourhoods are isomorphic (constants fixed, root to root);
    forms of different instances are not comparable.  Costs one filing
    pass over the facts plus, per element, the facts filed under the
    members of P(e) (each fact under its youngest null) and the
    constant-only facts; no cap on |P(e)|. *)

val natural : m:int -> Instance.t -> t
(** A natural coloring (Definition 14) for parameter [m], via greedy hue
    assignment over the P_m conflict relation (the elements
    [Bgraph.pred_set_k g m e] returns) and canonical neighbourhood forms
    for lightness.  No cap on |P(e)|.  Intended for VTDAGs/forests (chase skeletons). *)

val distance : radius:int -> Instance.t -> t
(** The Lemma 13 variant: hues pairwise distinct within each ball. *)

type violation =
  | Hue_clash of Element.id * Element.id
  | Lightness_clash of Element.id * Element.id

val check_natural : m:int -> Instance.t -> t -> violation list
(** Validate Definition 14 on an actual structure: a [Hue_clash] per
    same-hue pair within P_m, and a [Lightness_clash (rep, e)] for every
    element whose neighbourhood is not isomorphic to that of [rep], the
    first element of its (hue, lightness) class. *)
