(** Predicate symbols (relation names with arities).

    Symbols are interned: {!make} returns one shared value per
    (name, arity), carrying a dense process-wide {!id}.  Equality and
    {!hash} read the id; {!compare} orders by (name, arity), so sets,
    maps and printed output do not depend on interning order. *)

type t

val make : string -> int -> t
(** [make name arity] interns a predicate symbol: the same (name, arity)
    always yields the same symbol (and id), from any domain.
    @raise Invalid_argument if [arity < 0]. *)

val name : t -> string
val arity : t -> int

val id : t -> int
(** The dense interned id, [0 <= id p < number of symbols interned so
    far].  Ids are process-local: they reflect interning order, so
    nothing observable may depend on them beyond equality and indexing. *)

val is_unary : t -> bool
val is_binary : t -> bool
val equal : t -> t -> bool

val compare : t -> t -> int
(** By name, then arity. *)

val hash : t -> int
(** The id. *)

val pp : t Fmt.t
val show : t -> string

module Set : Set.S with type elt = t
module Map : Map.S with type key = t
