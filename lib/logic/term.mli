(** Terms: variables and constants (no function symbols, as usual for TGDs). *)

type t =
  | Var of string
  | Cst of string

val var : string -> t
val cst : string -> t
val is_var : t -> bool
val is_cst : t -> bool
val as_var : t -> string option
val as_cst : t -> string option
val equal : t -> t -> bool
val compare : t -> t -> int
val pp : t Fmt.t
val show : t -> string

val fresh_var : ?prefix:string -> unit -> string
(** A globally fresh variable name: [prefix] (default ["_X"]) and a
    counter, marked by {!Pred.mark}, so it cannot collide with a parsed
    variable (which may start with ['_'] too). *)

val reset_fresh_counter : unit -> unit
(** Reset the fresh-name supply (useful for reproducible tests). *)

module Set : Set.S with type elt = t
module Map : Map.S with type key = t
