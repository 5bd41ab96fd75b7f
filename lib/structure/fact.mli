(** Ground facts over element ids. *)

type t = { pred : Bddfc_logic.Pred.t; args : Element.id array }

val make : Bddfc_logic.Pred.t -> Element.id array -> t
(** @raise Invalid_argument on arity mismatch. *)

val pred : t -> Bddfc_logic.Pred.t
val args : t -> Element.id array
val arity : t -> int
val equal : t -> t -> bool
val compare : t -> t -> int
val hash : t -> int
(** Folds over the full argument array (unlike a bare [Hashtbl.hash],
    which stops after 10 meaningful nodes and would collide all
    higher-arity facts sharing a prefix), seeded with the predicate's
    interned id: no string is hashed, nothing is allocated.  Fact hashes
    therefore depend on interning order — key tables with them, never
    iterate one where order is observable. *)

val elements : t -> Element.id list
val pp : t Fmt.t
val show : t -> string

module Set : Set.S with type elt = t
module Table : Hashtbl.S with type key = t
