(** Piece unification: one backward-rewriting step of a CQ with a
    single-head rule.  A piece is a subset of query atoms unified with the
    head under the classical soundness conditions on existential
    variables (no constants, no frontier merging, class confined to the
    piece).  Answer variables are expected to be frozen into constants by
    the caller. *)

open Bddfc_logic

val one_steps : Rule.t -> Cq.t -> Cq.t list
(** All sound one-step rewritings of the query with the rule over its
    minimal pieces, each built by closure from one query atom: one
    rewriting per distinct piece, in the order of the atoms that seed
    them.  When no atom of the query has the head's predicate the result
    is [[]], found before the rule is renamed apart, so no fresh name is
    drawn and [rewrite.rule_visits] is not charged.
    @raise Assert_failure on a multi-head rule. *)
