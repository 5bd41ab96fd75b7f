(** Model checking: every body homomorphism must have its head satisfied
    (a witness for existential rules, the instantiated atoms for datalog
    rules). *)

open Bddfc_logic
open Bddfc_structure

type violation = {
  rule : Rule.t;
  binding : (string * Element.id) list;
}

val violations :
  ?limit:int -> ?eval:Bddfc_hom.Eval.engine -> Theory.t -> Instance.t ->
  violation list
(** Each rule's body and head are compiled on first use and kept by the
    function [violations ?limit ?eval theory] returns, so applying it to
    the theory once and then to many instances compiles each at most
    once. *)

val is_model : ?eval:Bddfc_hom.Eval.engine -> Theory.t -> Instance.t -> bool

val contains_database : db:Instance.t -> Instance.t -> bool
(** Does the instance contain every fact of [db]?  Constants are matched
    by name. *)

val pp_violation : violation Fmt.t
