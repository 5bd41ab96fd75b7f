(** Conjunctive queries with explicit answer variables. *)

module SS = Sset

type t = { answer : string list; body : Atom.t list }

val make : ?answer:string list -> Atom.t list -> t
(** @raise Invalid_argument if an answer variable does not occur in the body. *)

val boolean : Atom.t list -> t
val answer : t -> string list
val body : t -> Atom.t list
val is_boolean : t -> bool
val all_vars : t -> SS.t
val existential_vars : t -> SS.t
val consts : t -> SS.t
val num_vars : t -> int
val num_atoms : t -> int
val apply_subst : Subst.t -> t -> t
val rename_apart : t -> t * Subst.t
val freeze : t -> Atom.t list * Subst.t

val frozen_name : string -> string
(** The constant {!freeze} sends a variable to. *)

val edges : t -> (string * Pred.t * string) list
val connected_components : t -> SS.t list
val equal : t -> t -> bool
val compare : t -> t -> int
val pp : t Fmt.t
val show : t -> string
