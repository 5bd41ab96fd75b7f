(** Color predicates K^l_h: the unary symbols a coloring adds, one per
    (hue, lightness), made and recognised here for every module. *)

open Bddfc_logic

val pred : hue:int -> lightness:int -> Pred.t
(** The color with this hue and lightness, an invented symbol. *)

val of_pred : Pred.t -> (int * int) option
(** [Some (hue, lightness)] exactly when the symbol came from {!pred}. *)
