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

val invented : string -> int -> t
(** [invented base arity] is the symbol the construction invents under
    the name [base]: [make (mark base) arity].  No parsed program names
    it, so it never collides with a symbol of the input.  The same
    [base] always gives the same symbol; callers needing several keep
    their bases apart. *)

val mark : string -> string
(** The naming policy for every invented symbol, predicates here and
    variables in {!Term.fresh_var}: append ['#'], a character the lexer
    rejects.  ['#'] sorts below every identifier character, so marked
    names keep the relative order of their bases. *)

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
