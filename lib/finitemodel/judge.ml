(* The one-call front door: given (T, D, Q), gather everything the library
   can say about finite controllability of this triple.

     - Certain:        Chase(D,T) |= Q — no countermodel can exist;
     - Witness:        a *verified* finite countermodel (FC evidence),
                       found by the Theorem 2 pipeline or the search;
     - No_small_model: exhaustive proof that no countermodel with the
                       given slack exists, plus an inconclusive search and
                       pipeline — the executable shape of non-FC evidence
                       (Section 5.5); not a proof of non-FC;
     - Open:           nothing conclusive within budgets.

   The verdict also carries the class report and, unless the query is
   certain, the BDD/kappa analysis, so a caller sees at a glance whether
   the paper's conjecture applies (binary + BDD => FC, Theorem 1).
   Theorem 1 says nothing about a certain query, so that kappa is worked
   out after the verdict and skipped for [Certain]. *)

open Bddfc_logic
open Bddfc_structure
module Classes = Bddfc_classes
module Rewriting = Bddfc_rewriting

type evidence =
  | Certain of int (* chase depth *)
  | Witness of Certificate.t * Pipeline.stats option
  | No_small_model of { max_extra : int; search_nodes : int }
  | Open of string

type scope = {
  kappa : Rewriting.Rewrite.kappa_result;
  conjecture_applies : bool;
      (* binary signature + all body rewritings complete: Theorem 1 says a
         countermodel must exist whenever the query is not certain *)
}

type verdict = {
  evidence : evidence;
  classes : Classes.Recognize.report;
  scope : scope option; (* None exactly for Certain *)
  chase_terminating : bool;
      (* weakly or jointly acyclic: the chase reaches a fixpoint on every
         instance, so the pipeline pre-flight runs it fuel-free *)
}

type budget = {
  pipeline_params : Pipeline.params;
  search_params : Naive.search_params;
  exhaustive_extra : int;
  exhaustive_candidates : int;
}

let default_budget =
  {
    pipeline_params = Pipeline.default_params;
    search_params = Naive.default_search_params;
    exhaustive_extra = 1;
    exhaustive_candidates = 22;
  }

(* Registry handle (always on); the span only when a trace sink is
   installed. *)
module Obs = Bddfc_obs.Obs

let m_judgements = Obs.Metrics.counter "judge.judgements"
let t_judge = Obs.Metrics.timer "judge.run"

let judge ?(budget = default_budget) ?slice theory db query =
  Obs.Metrics.incr m_judgements;
  Obs.Metrics.time t_judge @@ fun () ->
  Obs.Trace.span "judge.run" @@ fun () ->
  let governor = budget.pipeline_params.Pipeline.budget in
  let classes = Classes.Recognize.report theory in
  let chase_terminating =
    classes.Classes.Recognize.weakly_acyclic
    || classes.Classes.Recognize.jointly_acyclic
  in
  (* The report kappa rewrites every rule body of the original theory.
     It runs after the verdict, under the same governor: its step cap is
     its own, but the deadline and any fuel trap are shared, so a
     pipeline that spends the deadline leaves it tripped. *)
  let scope () =
    let kappa =
      if Theory.all_single_head theory then
        Rewriting.Rewrite.kappa ?budget:governor
          ~eval:budget.pipeline_params.Pipeline.eval
          ~hc:budget.pipeline_params.Pipeline.hc
          ~max_disjuncts:budget.pipeline_params.Pipeline.rewrite_max_disjuncts
          ~max_steps:budget.pipeline_params.Pipeline.rewrite_max_steps theory
      else
        {
          Rewriting.Rewrite.kappa = 0;
          all_complete = false;
          tripped = None;
        }
    in
    {
      kappa;
      conjecture_applies =
        classes.Classes.Recognize.binary
        && kappa.Rewriting.Rewrite.all_complete;
    }
  in
  let finish evidence =
    let scope =
      match evidence with Certain _ -> None | _ -> Some (scope ())
    in
    { evidence; classes; scope; chase_terminating }
  in
  match
    Pipeline.construct ~params:budget.pipeline_params ?slice theory db query
  with
  | Pipeline.Query_entailed d -> finish (Certain d)
  | Pipeline.Model (cert, stats) -> finish (Witness (cert, Some stats))
  | Pipeline.Unknown (why, _) -> (
      (* the pipeline gave up: let the search try, then exhaustively rule
         out small models *)
      match
        Naive.search ?budget:governor
          ~strategy:budget.pipeline_params.Pipeline.strategy
          ~eval:budget.pipeline_params.Pipeline.eval
          ~params:budget.search_params theory db query
      with
      | Naive.Found m ->
          let cert = { Certificate.theory; database = db; query; model = m } in
          if Certificate.is_valid cert then finish (Witness (cert, None))
          else finish (Open "search produced an invalid model (bug)")
      | Naive.Exhausted | Naive.Budget_out _ -> (
          match
            Naive.exhaustive_absence ?budget:governor
              ~eval:budget.pipeline_params.Pipeline.eval
              ~max_candidates:budget.exhaustive_candidates
              ~max_extra:budget.exhaustive_extra theory db query
          with
          | Naive.No_model ->
              finish
                (No_small_model
                   {
                     max_extra = budget.exhaustive_extra;
                     search_nodes = budget.search_params.Naive.max_nodes;
                   })
          | Naive.Counter_model m ->
              let cert =
                { Certificate.theory; database = db; query; model = m }
              in
              if Certificate.is_valid cert then finish (Witness (cert, None))
              else finish (Open "exhaustive produced an invalid model (bug)")
          | Naive.Too_large _ -> finish (Open why)
          | Naive.Absence_exhausted r ->
              finish
                (Open
                   (Fmt.str "%s (%s budget exhausted during exhaustive \
                             enumeration)"
                      why (Bddfc_budget.Budget.resource_name r)))))

let pp_evidence ppf = function
  | Certain d -> Fmt.pf ppf "the query is certain (chase depth %d)" d
  | Witness (cert, _) ->
      Fmt.pf ppf "verified finite countermodel with %d elements"
        (Instance.num_elements cert.Certificate.model)
  | No_small_model { max_extra; _ } ->
      Fmt.pf ppf
        "no countermodel with <= %d extra elements (proved); larger models \
         not found within budgets — the non-FC signature"
        max_extra
  | Open why -> Fmt.pf ppf "inconclusive: %s" why

let pp_scope ppf = function
  | Some s -> Fmt.bool ppf s.conjecture_applies
  | None ->
      Fmt.string ppf "not computed (the query is certain; see bddfc classify)"

let pp ppf v =
  Fmt.pf ppf
    "@[<v>%a@,theorem-1 scope (binary + BDD): %a@,\
     chase terminates (acyclicity): %b@,%a@]"
    pp_evidence v.evidence pp_scope v.scope v.chase_terminating
    Classes.Recognize.pp_report v.classes
