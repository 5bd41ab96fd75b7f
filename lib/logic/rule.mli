(** Rules: existential TGDs and plain datalog rules.  The existential
    variables of a rule are exactly the head variables absent from the
    body; a rule without existential variables is a datalog rule. *)

module SS = Sset

type t = {
  name : string;
  body : Atom.t list;
  head : Atom.t list;
  loc : Loc.t;  (** source position; never part of structural equality *)
  declared_ex : SS.t option;
      (** the surface-syntax [exists ...] list, if one was written *)
}

val make :
  name:string ->
  ?loc:Loc.t ->
  ?declared_ex:SS.t ->
  body:Atom.t list ->
  head:Atom.t list ->
  unit ->
  t
(** @raise Invalid_argument on empty body or head.  The parser names a
    program's rules [r1..rn] by position. *)

val name : t -> string
val body : t -> Atom.t list
val head : t -> Atom.t list
val loc : t -> Loc.t

val declared_existentials : t -> SS.t option
(** The variables the surface syntax declared with [exists], when the rule
    came from the parser and had such a clause.  The semantic existential
    variables are {!existential_vars}; a mismatch between the two is a
    lint diagnostic, not an error. *)
val body_vars : t -> SS.t
val head_vars : t -> SS.t
val existential_vars : t -> SS.t
val frontier : t -> SS.t
val is_datalog : t -> bool
val is_existential : t -> bool
val is_single_head : t -> bool
val is_frontier_one : t -> bool
val preds : t -> Pred.Set.t
val body_preds : t -> Pred.Set.t
val head_preds : t -> Pred.Set.t
val consts : t -> Atom.SS.t
val rename_apart : t -> t
val body_query : t -> Cq.t
val equal : t -> t -> bool
val compare : t -> t -> int
val pp : t Fmt.t
val show : t -> string
