(** Names kept only for [benchmark/], which changes in its own PR
    (ROADMAP item 2); that PR deletes this module.  No library code
    reads them: containment has one path (the {!Containment} matcher)
    and evaluation no memo. *)

open Bddfc_logic
open Bddfc_structure

type mode = Interned | Structural (** no longer selects anything *)

val holds_memo :
  ?engine:Eval.engine ->
  Instance.t -> init:(string * Element.id) list -> Cq.t -> bool
(** [Eval.holds] with [init] bound; nothing is memoized. *)

val reset : unit -> unit
(** Does nothing. *)
