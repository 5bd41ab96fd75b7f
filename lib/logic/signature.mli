(** Relational signatures: predicate symbols plus constants. *)

type t

val empty : t
val make : preds:Pred.t list -> consts:string list -> t
val preds : t -> Pred.t list
val pred_set : t -> Pred.Set.t
val consts : t -> string list
val union : t -> t -> t
val max_arity : t -> int
val is_binary : t -> bool
(** All predicates have arity at most 2 (the paper's "binary signature"). *)

val of_atoms : Atom.t list -> t
val of_rules : Rule.t list -> t
val pp : t Fmt.t
val show : t -> string
