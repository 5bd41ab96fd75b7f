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

type verdict = {
  evidence : evidence;
  classes : Bddfc_classes.Recognize.report;
  kappa : Bddfc_rewriting.Rewrite.kappa_result;
  conjecture_applies : bool;
      (** binary + BDD: Theorem 1 guarantees a countermodel exists
          whenever the query is not certain *)
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
