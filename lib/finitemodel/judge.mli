(** The one-call front door: everything the library can say about finite
    controllability of a (theory, database, query) triple — pipeline,
    search, exhaustive small-model absence, class report, BDD status. *)

open Bddfc_logic
open Bddfc_structure

type evidence =
  | Certain of int (** the query is certain at this chase depth *)
  | Witness of Certificate.t * Pipeline.stats option
      (** a verified finite countermodel *)
  | No_small_model of { max_extra : int; search_nodes : int }
      (** proved absence of small countermodels + inconclusive search:
          the executable shape of Section 5.5 non-FC evidence *)
  | Open of string

type scope = {
  kappa : Bddfc_rewriting.Rewrite.kappa_result;
      (** the BDD rewriting of every rule body of the original theory,
          at the pipeline's caps ([rewrite_max_disjuncts],
          [rewrite_max_steps]) *)
  conjecture_applies : bool;
      (** binary + BDD: Theorem 1 guarantees a countermodel exists
          whenever the query is not certain *)
}
(** Where the verdict stands with respect to Theorem 1. *)

type verdict = {
  evidence : evidence;
  classes : Bddfc_classes.Recognize.report;
  scope : scope option;
      (** [None] exactly when [evidence] is [Certain _]: Theorem 1 says
          nothing about a certain query, so its κ is not computed
          ([bddfc classify] prints it at the same caps).  Otherwise it is
          computed after the evidence, under the same governor: its step
          cap is a fresh counter ({!Bddfc_budget.Budget.cap}), but the
          deadline and any fuel trap are shared with the stages before
          it.  A run on a single-head theory that spends its deadline (or
          trips its trap) before the verdict therefore gets a scope with
          [kappa.tripped = Some _] and [conjecture_applies = false]. *)
  chase_terminating : bool;
      (** the theory is weakly or jointly acyclic, so every chase reaches
          a fixpoint; the pipeline pre-flight then runs it fuel-free and
          certainty/countermodel answers are definite, not truncated *)
}

type budget = {
  pipeline_params : Pipeline.params;
  search_params : Naive.search_params;
  exhaustive_extra : int;
  exhaustive_candidates : int;
}

val default_budget : budget
val judge :
  ?budget:budget ->
  ?slice:Bddfc_analysis.Dataflow.slice ->
  Theory.t -> Instance.t -> Cq.t -> verdict
(** [slice] is forwarded to {!Pipeline.construct}. *)

val pp_evidence : evidence Fmt.t
val pp : verdict Fmt.t
