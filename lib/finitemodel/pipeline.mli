(** The Theorem 2 construction, end to end: hide the query (♠4),
    normalize (♠5), chase to a prefix, extract the skeleton
    (Definition 12), compute kappa (Section 3.3), color naturally
    (Definition 14), quotient at increasing depths (Definition 5),
    datalog-saturate (Lemma 5), and verify.

    Soundness never depends on the heuristics: every produced model is
    re-checked by {!Certificate.verify}; budget exhaustion yields
    [Unknown] with [stats.tripped] naming the resource — never an
    exception.  When [params.budget] carries a deadline, the retry
    schedule over deeper chase prefixes splits the remaining wall clock
    evenly across the attempts still to come. *)

open Bddfc_budget
open Bddfc_logic
open Bddfc_structure

type params = {
  chase_depth : int;
  depth_growth : int list;
      (** multipliers over [chase_depth] for retries at deeper prefixes *)
  max_chase_elements : int;
  n_schedule : int list; (** refinement depths to try, in order *)
  refine_mode : Bddfc_ptp.Refine.mode;
      (** ablation knob; [Backward] (the default) is exact on skeletons *)
  coloring_m : int option; (** override the kappa-derived m *)
  rewrite_max_disjuncts : int;
  rewrite_max_steps : int;
  saturation_rounds : int;
  budget : Budget.t option; (** governor threaded through every stage *)
  strategy : Bddfc_chase.Chase.strategy;
      (** evaluation strategy for every chase stage (default [Seminaive]) *)
  eval : Bddfc_hom.Eval.engine;
      (** join engine for every evaluation stage (default [Compiled]) *)
  hc : Bddfc_hom.Hc.mode;
      (** read by no library code: containment has one path.  The field
          stays while [benchmark/replay.ml] reads it, and goes with the
          replay (ROADMAP item 2) *)
  preflight : bool;
      (** test the normalized theory for weak/joint acyclicity first
          (default [true]): a positive proof lets the chase run fuel-free
          (deadline only) to its guaranteed fixpoint, upgrading
          budget-truncated Unknowns to definite verdicts *)
}

val default_params : params

type stats = {
  chase_rounds : int;
  chase_elements : int;
  chase_fixpoint : bool;
  skeleton_facts : int;
  kappa : int;
  kappa_complete : bool;
  m_used : int;
  n_used : int option; (** [Some 0] when the finite chase itself was the model *)
  model_size : int option;
  attempts : (int * string) list; (** failed depths with reasons *)
  tripped : Budget.resource option;
      (** the budget behind an [Unknown], when one tripped *)
  preflight_terminating : bool;
      (** the acyclicity pre-flight proved this chase terminates *)
}

type outcome =
  | Model of Certificate.t * stats
  | Query_entailed of int (** chase depth at which the query held *)
  | Unknown of string * stats

val original_signature_model : Theory.t -> Instance.t -> Instance.t -> Instance.t
(** Restrict a model to the original theory-and-database signature,
    dropping colors, TGP witnesses and the hidden query predicate. *)

val construct :
  ?params:params ->
  ?slice:Bddfc_analysis.Dataflow.slice ->
  Theory.t -> Instance.t -> Cq.t -> outcome
(** Computes kappa at most once per call through {!kappa_once}: every
    depth attempt reuses it unless the deadline stopped it.

    [slice] is the query's rule slice ({!Bddfc_analysis.Dataflow.slice}
    of the theory against the query), for callers that hold one.  When
    it is proper, the sliced theory is chased first, watching the hidden
    query predicate; an entailment returns [Query_entailed] with the
    {e same} depth the full construction reports.  Anything else falls
    through to the full construction, because a countermodel must
    satisfy the dropped rules too (DESIGN.md section 12).  The caller
    must pass the slice of this theory against this query. *)

val kappa_once :
  ('b -> Bddfc_rewriting.Rewrite.kappa_result) ->
  'b -> Bddfc_rewriting.Rewrite.kappa_result
(** [kappa_once compute] is [compute], called on first use and then
    replayed, except that a result with [tripped = Some Deadline] is
    computed again on the next call (with that call's budget). *)
