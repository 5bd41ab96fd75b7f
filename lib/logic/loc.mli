(** Source locations (1-based line and column).  [none] marks synthesized
    syntax; locations never participate in the structural equality of the
    atoms and rules that carry them. *)

type t = { line : int; col : int }

val none : t
val make : line:int -> col:int -> t
val line : t -> int
val col : t -> int

val pp : t Fmt.t
(** ["3:14"], or ["-"] for {!none}. *)

val pp_in_file : string -> t Fmt.t
(** ["FILE:3:14"], or just ["FILE"] for {!none}. *)

val show : t -> string

val compare : t -> t -> int
(** Position order; {!none} sorts after every real location. *)
