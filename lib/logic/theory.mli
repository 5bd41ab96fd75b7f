(** Theories: finite sets of existential TGDs and plain datalog rules. *)

type t

val make : Rule.t list -> t
val rules : t -> Rule.t list
val empty : t
val add_rule : Rule.t -> t -> t
val append : t -> t -> t
val size : t -> int
val signature : t -> Signature.t
val is_binary : t -> bool
val all_single_head : t -> bool

val tgps : t -> Pred.Set.t
(** Tuple generating predicates: heads of existential TGDs (♠5). *)

val tgp_pure : t -> bool
(** No TGP occurs in a datalog head. *)

val heads_normalized : t -> bool
(** Every existential head is [exists z. R(y, z)] with [y] in the body. *)

val is_normalized : t -> bool
(** [tgp_pure && heads_normalized] — the ♠5 discipline. *)

val max_body_vars : t -> int
val pp : t Fmt.t
val show : t -> string
