(** Elements of finite structures: named constants and labelled nulls with
    provenance (birth round, creating rule, skeleton parent). *)

type id = int

type info =
  | Const of string
  | Null of { birth : int; rule : string; parent : id option }

val is_const : info -> bool
val is_null : info -> bool
val const_name : info -> string option

val parent : info -> id option
(** The frontier element this null was created for — its parent in the
    skeleton forest of Section 3.2 (None for constants and roots). *)

val birth : info -> int
(** The chase round that created the element (0 for constants). *)

module Id_set : Set.S with type elt = id
module Id_map : Map.S with type key = id
