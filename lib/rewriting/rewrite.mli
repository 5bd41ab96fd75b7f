(** UCQ rewriting saturation and the BDD property (Definition 2 of the
    paper): a theory is BDD for a query when the saturation reaches a
    fixpoint; the result is the positive first-order rewriting Psi'.

    BDD is undecidable, so the saturation is budgeted: running out yields
    [complete = false] and a sound under-approximation (each disjunct is a
    correct sufficient condition for certainty).  Truncation goes through
    a {!Bddfc_budget.Budget.t}: step fuel and the deadline are charged
    cooperatively, exhaustion never escapes as an exception, and
    [tripped] names the resource that stopped an incomplete run. *)

open Bddfc_budget
open Bddfc_logic
open Bddfc_structure

type result = {
  ucq : Cq.t list;
  complete : bool; (** fixpoint reached: [ucq] is the full rewriting *)
  generated : int; (** rewriting steps attempted *)
  kept : int; (** disjuncts surviving subsumption *)
  tripped : Budget.resource option;
      (** the budget that stopped an incomplete saturation *)
}

val rewrite :
  ?budget:Budget.t -> ?eval:Bddfc_hom.Eval.engine ->
  ?hc:Bddfc_hom.Hc.mode -> ?max_disjuncts:int ->
  ?max_steps:int -> ?max_disjunct_vars:int ->
  Theory.t -> Cq.t -> result
(** [?hc] selects the containment backend for the subsumption-driven
    kept list ({!Bddfc_hom.Hc.mode}; default {!Bddfc_hom.Hc.default_mode}).
    @raise Invalid_argument on multi-head rules (apply
    [Bddfc_classes.Multihead.to_single_head] first). *)

val ucq_holds : ?eval:Bddfc_hom.Eval.engine -> Instance.t -> Cq.t list -> bool

type kappa_result = {
  kappa : int;
      (** max variables over the disjuncts of the body rewritings computed *)
  all_complete : bool; (** every body rewriting reached a fixpoint *)
  tripped : Budget.resource option;
      (** the resource that stopped the incomplete body rewriting, if any *)
}

val kappa :
  ?budget:Budget.t -> ?eval:Bddfc_hom.Eval.engine ->
  ?hc:Bddfc_hom.Hc.mode -> ?max_disjuncts:int ->
  ?max_steps:int -> ?max_disjunct_vars:int ->
  Theory.t -> kappa_result
(** The kappa of Section 3.3: the maximal number of variables in a
    positive rewriting of the body of some rule of the theory.  The bodies
    are rewritten in rule order, and the first incomplete one ends the
    computation: then [all_complete] is [false], [kappa] covers only the
    bodies rewritten so far (the divergent one included) and is no bound
    on anything, and [tripped] is that body's. *)
