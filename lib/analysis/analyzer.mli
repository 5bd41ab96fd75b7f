(** The static-analysis pass: every hygiene and class-membership check
    over a parsed program, each finding a located {!Diagnostic.t} with a
    concrete witness. *)

open Bddfc_logic

(** Stable diagnostic codes, one constant per check. *)
module Codes : sig
  val arity_mismatch : string  (** error *)

  val unsafe_head_var : string
  val exvar_in_body : string
  val exvar_unused : string
  val singleton_var : string
  val undefined_pred : string
  val query_unreachable : string  (** warnings *)

  val unused_pred : string
  val multi_head : string
  val not_normalized : string
  val non_binary : string
  val non_guarded : string
  val non_linear : string
  val non_frontier_one : string
  val wa_cycle : string
  val ja_cycle : string
  val not_sticky : string  (** infos: class membership with witness *)

  val unreachable_predicate : string
  val dead_rule : string
  val unsatisfiable_body : string
      (** warnings: whole-theory dataflow facts (see {!Dataflow}) —
          a derived predicate no rule chain can populate, a rule that
          can never fire, a ground body atom over an extensional
          predicate matching no fact *)

  val all : string list
end

type input = {
  rules : Rule.t list;
  facts : Atom.t list;
  queries : Cq.t list;
  edb_known : bool;
      (** whether [facts]/[queries] are the complete program; the
          EDB-dependent checks (undefined / unused / unreachable
          predicates) only run when they are *)
}

val of_program : Parser.program -> input
(** The full program: EDB-dependent checks enabled. *)

val analyze : input -> Diagnostic.t list
(** All checks, sorted by {!Diagnostic.compare} (position-major). *)

val analyze_program : Parser.program -> Diagnostic.t list
val analyze_theory : Theory.t -> Diagnostic.t list

(** {1 Sticky marking with provenance}

    Exposed so callers can render the marking trace behind a
    [not-sticky] diagnostic. *)

module Pos : sig
  type t = Pred.t * int

  val compare : t -> t -> int
end

type sticky_violation = {
  rule : Rule.t;
  var : string;  (** marked variable occurring repeatedly in the body *)
  position : Pos.t;  (** a marked body position of [var] *)
  occurrences : int;  (** body occurrences of [var] *)
  trace : string list;  (** marking provenance, base case last *)
}

val sticky_violations : Theory.t -> sticky_violation list
(** Empty iff the theory is sticky. *)

(** {1 Helpers over diagnostic lists} *)

val has_code : string -> Diagnostic.t list -> bool
val find_code : string -> Diagnostic.t list -> Diagnostic.t option
