(* The Theorem 2 construction, end to end:

     1. hide the query inside the theory (♠4);
     2. normalize existential heads into TGP form (♠5);
     3. chase D to a prefix; if the hidden predicate appears, the query is
        certain and no countermodel exists;
     4. extract the skeleton S(D, T) (Definition 12);
     5. compute kappa from the positive rewritings of the rule bodies
        (Section 3.3), once for all depth attempts, and color the
        skeleton naturally (Definition 14);
     6. for increasing n: quotient the colored skeleton (Definition 5),
        saturate with the datalog rules (Lemma 5 says no new elements are
        needed), and verify;
     7. return a *verified* certificate, or Unknown when budgets run out.

   Soundness never depends on the heuristics: every produced model is
   re-checked against T, D and Q by Certificate.verify.

   The whole pipeline is governed by an optional Budget.t in [params]:
   every stage threads it into the engines, the retry schedule over
   deeper chase prefixes splits the remaining deadline across the
   attempts still to come, and exhaustion surfaces as [Unknown] with
   [stats.tripped] naming the resource — never as an exception. *)

open Bddfc_budget
open Bddfc_logic
open Bddfc_structure
open Bddfc_hom
open Bddfc_chase
open Bddfc_rewriting
open Bddfc_ptp
module Ptp = Bddfc_ptp

type params = {
  chase_depth : int;
  depth_growth : int list; (* multipliers for retries at deeper prefixes *)
  max_chase_elements : int;
  n_schedule : int list; (* refinement depths to try, in order *)
  refine_mode : Ptp.Refine.mode; (* ablation knob: Backward is the default *)
  coloring_m : int option; (* override the kappa-derived m *)
  rewrite_max_disjuncts : int;
  rewrite_max_steps : int;
  saturation_rounds : int;
  budget : Budget.t option; (* governor shared by every stage *)
  strategy : Chase.strategy; (* evaluation strategy for every chase *)
  eval : Eval.engine; (* join engine for every evaluation stage *)
  hc : Hc.mode;
      (* containment backend for kappa: Interned (the default) runs on
         prepared queries with the signature index, Structural is the
         differential oracle *)
  preflight : bool;
      (* before the truncated schedule, test the normalized theory for
         weak/joint acyclicity; a positive proof lets the chase run
         fuel-free (deadline only) to its guaranteed fixpoint, turning
         budget-truncated Unknowns into definite verdicts *)
}

let default_params =
  {
    chase_depth = 24;
    depth_growth = [ 1; 3; 8 ];
    max_chase_elements = 20_000;
    n_schedule = [ 1; 2; 3; 4; 5; 6 ];
    refine_mode = Ptp.Refine.Backward;
    coloring_m = None;
    rewrite_max_disjuncts = 100;
    rewrite_max_steps = 2_000;
    saturation_rounds = 10_000;
    budget = None;
    strategy = Chase.Seminaive;
    eval = Eval.Compiled;
    hc = Hc.default_mode ();
    preflight = true;
  }

type stats = {
  chase_rounds : int;
  chase_elements : int;
  chase_fixpoint : bool;
  skeleton_facts : int;
  kappa : int;
  kappa_complete : bool;
  m_used : int;
  n_used : int option;
  model_size : int option;
  attempts : (int * string) list; (* failed n with reason, newest first *)
  tripped : Budget.resource option; (* budget behind an Unknown, if any *)
  preflight_terminating : bool;
      (* the acyclicity pre-flight proved this chase terminates *)
}

let empty_stats =
  {
    chase_rounds = 0;
    chase_elements = 0;
    chase_fixpoint = false;
    skeleton_facts = 0;
    kappa = 0;
    kappa_complete = false;
    m_used = 0;
    n_used = None;
    model_size = None;
    attempts = [];
    tripped = None;
    preflight_terminating = false;
  }

type outcome =
  | Model of Certificate.t * stats
  | Query_entailed of int (* chase round at which the query held *)
  | Unknown of string * stats

let src = Logs.Src.create "bddfc.pipeline" ~doc:"Theorem 2 pipeline"

module Log = (val Logs.src_log src : Logs.LOG)

(* Registry handles (always on); spans per stage only when a trace sink
   is installed.  [pipeline.attempts] counts construct_at invocations —
   pre-flight and every depth-schedule retry alike. *)
module Obs = Bddfc_obs.Obs
module Dataflow = Bddfc_analysis.Dataflow

let m_constructs = Obs.Metrics.counter "pipeline.constructs"
let m_attempts = Obs.Metrics.counter "pipeline.attempts"
let m_quotients = Obs.Metrics.counter "pipeline.quotient_attempts"
let m_slice_fastpath = Obs.Metrics.counter "pipeline.slice_fastpath"
let t_construct = Obs.Metrics.timer "pipeline.construct"
let t_skeleton = Obs.Metrics.timer "pipeline.skeleton"
let t_kappa = Obs.Metrics.timer "pipeline.kappa"
let t_coloring = Obs.Metrics.timer "pipeline.coloring"

(* One pipeline step: a registry timer and a span of the same name. *)
let step name timer f =
  Obs.Metrics.time timer @@ fun () -> Obs.Trace.span name f

(* Restrict a model back to the signature of the original theory plus the
   database: drops colors, TGP witnesses and the hidden query predicate. *)
let original_signature_model theory db inst =
  let keep =
    Pred.Set.union
      (Signature.pred_set (Theory.signature theory))
      (Instance.preds db)
  in
  Instance.restrict_preds inst keep

(* kappa depends only on the normalized theory and the rewrite caps, so
   every depth attempt of one construct shares a single computation,
   made on first need under that attempt's budget.  A deadline-stopped
   kappa is recomputed, since the next attempt gets a fresh share of the
   wall clock; a complete or fuel-stopped one is kept. *)
let kappa_once compute =
  let memo = ref None in
  fun budget ->
    match !memo with
    | Some kap when kap.Rewrite.tripped <> Some Budget.Deadline -> kap
    | _ ->
        let kap = compute budget in
        memo := Some kap;
        kap

(* Chase a normalized theory watching the hidden query predicate, which
   stops the chase the moment entailment is decided.  Returns the run and,
   when the query held, its entailment depth: the hide rule is an
   existential rule, so spade5 splits it into a TGP step plus a back
   rule, and the hidden predicate appears exactly two rounds after the
   query body first holds. *)
let watched_chase ~params ?budget ?max_rounds ?max_elements
    (hidden : Normalize.hidden) t2 db =
  let chase =
    Chase.run ~strategy:params.strategy ~eval:params.eval ?budget
      ~watch:hidden.Normalize.query_pred ?max_rounds ?max_elements t2 db
  in
  let entailed =
    chase.Chase.outcome = Chase.Watched
    || Instance.card_with_pred chase.Chase.instance hidden.Normalize.query_pred
       > 0
  in
  ( chase,
    if not entailed then None
    else
      Some
        (match chase.Chase.watch_round with
        | Some r -> max 0 (r - 2)
        | None -> chase.Chase.rounds) )

let rec construct_main ~params theory db (query : Cq.t) =
  (* -------- steps 1 and 2: normalize -------- *)
  let hidden = Normalize.hide_query theory query in
  match Normalize.spade5 hidden.Normalize.theory with
  | exception Normalize.Unsupported reason ->
      Unknown ("normalization: " ^ reason, empty_stats)
  | split ->
      let t2 = split.Normalize.theory in
      let kappa =
        kappa_once (fun budget ->
            step "pipeline.kappa" t_kappa @@ fun () ->
            Rewrite.kappa ?budget ~eval:params.eval ~hc:params.hc
              ~max_disjuncts:params.rewrite_max_disjuncts
              ~max_steps:params.rewrite_max_steps t2)
      in
      (* -------- pre-flight: acyclicity implies termination -------- *)
      (* The chase of a weakly (or jointly) acyclic theory reaches a
         fixpoint on every instance, so fuel bounds would only truncate a
         run that is known to converge.  Run it once, fuel-free — the
         wall-clock deadline stays as the safety net — and the fixpoint
         (or watched query) is a *definite* verdict where the truncated
         schedule below could answer Unknown. *)
      let preflight_outcome =
        if
          params.preflight
          && (Termination.weakly_acyclic t2
             || Termination.jointly_acyclic t2)
        then begin
          Log.info (fun f ->
              f "pre-flight: theory is acyclic, chasing to fixpoint");
          let budget =
            Some
              (match params.budget with
              | Some b -> Budget.deadline_only b
              | None -> Budget.unlimited)
          in
          match
            construct_at ~params ~budget ~hidden ~t2 ~kappa
              ~terminating:true theory db query ~depth:params.chase_depth
          with
          | Unknown _ ->
              (* only a deadline (or injected fault) can interrupt a
                 terminating chase: fall back to the truncated schedule,
                 which degrades gracefully with whatever time is left *)
              None
          | outcome -> Some outcome
        end
        else None
      in
      match preflight_outcome with
      | Some outcome -> outcome
      | None ->
      (* Some theories advance one chase "level" only every few rounds
         (witness creation, then joining, then datalog); a prefix too
         shallow for the quotient's periodic tail shows up as unsatisfied
         existential rules, so retry at the depths of the schedule.  Each
         retry gets an equal split of whatever deadline remains, so a
         diverging early attempt cannot starve the deeper ones. *)
      let rec over_depths last prev_attempts = function
        | [] -> last
        | mult :: rest -> (
            match
              Option.bind params.budget Budget.exhausted_now
            with
            | Some r ->
                (* the governor is dry: best-effort answer is whatever the
                   previous attempts produced *)
                let reason, st =
                  match last with
                  | Unknown (reason, st) -> (reason, st)
                  | _ -> ("budget exhausted", empty_stats)
                in
                Unknown
                  ( Fmt.str "%s (%s budget exhausted)" reason
                      (Budget.resource_name r),
                    { st with tripped = Some r } )
            | None -> (
                let budget =
                  match params.budget with
                  | None -> None
                  | Some b -> (
                      match Budget.remaining_s b with
                      | Some rem when rem > 0. ->
                          (* split the remaining wall clock over this and
                             the remaining attempts *)
                          Some
                            (Budget.with_deadline_s
                               (rem /. float_of_int (1 + List.length rest))
                               b)
                      | _ -> Some b)
                in
                match
                  construct_at ~params ~budget ~hidden ~t2 ~kappa theory db
                    query ~depth:(params.chase_depth * mult)
                with
                | Unknown (reason, st) when rest <> [] ->
                    over_depths
                      (Unknown
                         (reason, { st with attempts = st.attempts @ prev_attempts }))
                      (st.attempts @ prev_attempts)
                      rest
                | Unknown (reason, st) ->
                    Unknown
                      (reason, { st with attempts = st.attempts @ prev_attempts })
                | outcome -> outcome))
      in
      over_depths
        (Unknown ("empty depth schedule", empty_stats))
        []
        (match params.depth_growth with [] -> [ 1 ] | l -> l)

and construct_at ~params ~budget ~hidden ~t2 ~kappa ?(terminating = false)
    theory db query ~depth =
      Obs.Metrics.incr m_attempts;
      Obs.Trace.span "pipeline.construct_at" @@ fun () ->
      if Obs.Trace.enabled () then begin
        Obs.Trace.attr "depth" (Obs.Int depth);
        Obs.Trace.attr "terminating" (Obs.Bool terminating)
      end;
      (* -------- step 3: chase prefix -------- *)
      (* Watching the hidden query predicate decides entailment with no
         deeper prefix and no second chase.  A [terminating] chase
         (acyclicity pre-flight) gets no round or element ceiling: it is
         proved to reach a fixpoint, and the caller's budget is
         deadline-only. *)
      let chase, entailed =
        if terminating then watched_chase ~params ?budget hidden t2 db
        else
          watched_chase ~params ?budget ~max_rounds:depth
            ~max_elements:params.max_chase_elements hidden t2 db
      in
      let stats0 =
        { empty_stats with
          chase_rounds = chase.Chase.rounds;
          chase_elements = Instance.num_elements chase.Chase.instance;
          chase_fixpoint = chase.Chase.outcome = Chase.Fixpoint;
          preflight_terminating = terminating;
        }
      in
      match entailed with
      | Some depth -> Query_entailed depth
      | None ->
      if chase.Chase.outcome = Chase.Fixpoint then begin
        (* the chase is finite: it is itself the countermodel *)
        let model =
          original_signature_model theory db chase.Chase.instance
        in
        let cert =
          { Certificate.theory; database = db; query; model }
        in
        if Certificate.is_valid cert then
          Model
            ( cert,
              { stats0 with
                model_size = Some (Instance.num_elements model);
                n_used = Some 0;
              } )
        else Unknown ("finite chase failed verification (bug?)", stats0)
      end
      else begin
        (* a deadline (or injected trap) mid-chase leaves no time for the
           expensive stages; bail with the prefix statistics *)
        match
          match chase.Chase.outcome with
          | Chase.Exhausted (Budget.Deadline as r) -> Some r
          | Chase.Exhausted r when terminating ->
              (* a terminating chase has no fuel ceiling; any other
                 exhaustion here is an injected fault *)
              Some r
          | _ -> Option.bind budget Budget.exhausted_now
        with
        | Some r ->
            Unknown
              ( Fmt.str "%s budget exhausted during the chase prefix"
                  (Budget.resource_name r),
                { stats0 with tripped = Some r } )
        | None ->
        (* -------- step 4: skeleton -------- *)
        let sk =
          step "pipeline.skeleton" t_skeleton @@ fun () ->
          Skeleton.extract t2 chase
        in
        let stats0 =
          { stats0 with
            skeleton_facts = Instance.num_facts sk.Skeleton.skeleton;
          }
        in
        (* -------- step 5: kappa and coloring -------- *)
        let kap = kappa budget in
        let m =
          match params.coloring_m with
          | Some m -> m
          | None ->
              (* when the rewriting diverged, its partial kappa is an
                 artifact of the budget, not a meaningful bound — fall
                 back to the syntactic sizes *)
              let base = max (Theory.max_body_vars t2) (Cq.num_vars query) in
              if kap.Rewrite.all_complete then max kap.Rewrite.kappa base
              else base
        in
        let stats0 =
          { stats0 with
            kappa = kap.Rewrite.kappa;
            kappa_complete = kap.Rewrite.all_complete;
            m_used = m;
            tripped = kap.Rewrite.tripped;
          }
        in
        let coloring =
          step "pipeline.coloring" t_coloring @@ fun () ->
          Coloring.natural ~m sk.Skeleton.skeleton
        in
        (* -------- step 6: quotient, saturate, verify -------- *)
        let attempts = ref [] in
        let g = Bgraph.make coloring.Coloring.colored in
        let try_n n =
          Obs.Metrics.incr m_quotients;
          Obs.Trace.span "pipeline.try_n" @@ fun () ->
          if Obs.Trace.enabled () then Obs.Trace.attr "n" (Obs.Int n);
          let refinement =
            Refine.compute ~mode:params.refine_mode ?budget ~depth:n g
          in
          let quotient =
            Quotient.of_refinement coloring.Coloring.colored refinement
          in
          (* saturation chases a copy: the quotient itself is not mutated *)
          let sat =
            Chase.saturate_datalog ~strategy:params.strategy
              ~eval:params.eval ?budget ~max_rounds:params.saturation_rounds
              t2 quotient.Quotient.quotient
          in
          let m1 = sat.Chase.instance in
          let fail reason =
            attempts := (n, reason) :: !attempts;
            Log.debug (fun f -> f "n=%d failed: %s" n reason);
            None
          in
          if not (Chase.is_model sat) then
            fail
              (Fmt.str "saturation incomplete (%a)" Chase.pp_outcome
                 sat.Chase.outcome)
          else if
            Instance.card_with_pred m1 hidden.Normalize.query_pred > 0
          then fail "hidden predicate derived after saturation"
          else if Eval.holds ~engine:params.eval m1 query then
            fail "query satisfied in quotient"
          else begin
            match Model_check.violations ~limit:1 ~eval:params.eval t2 m1 with
            | _ :: _ -> fail "existential rule unsatisfied (Lemma 5 failed)"
            | [] ->
                let model = original_signature_model theory db m1 in
                let cert =
                  { Certificate.theory; database = db; query; model }
                in
                if Certificate.is_valid cert then Some (cert, n)
                else fail "certificate verification failed"
          end
        in
        let rec search = function
          | [] ->
              Unknown
                ( "no refinement depth in the schedule produced a model",
                  { stats0 with attempts = !attempts } )
          | n :: rest -> (
              (* every quotient attempt starts by probing the governor so
                 a dry budget short-circuits instead of grinding *)
              match Option.bind budget Budget.exhausted_now with
              | Some r ->
                  Unknown
                    ( Fmt.str "%s budget exhausted before refinement n=%d"
                        (Budget.resource_name r) n,
                      { stats0 with attempts = !attempts; tripped = Some r }
                    )
              | None -> (
                  match try_n n with
                  | Some (cert, n_used) ->
                      Model
                        ( cert,
                          { stats0 with
                            n_used = Some n_used;
                            model_size =
                              Some
                                (Instance.num_elements cert.Certificate.model);
                            attempts = !attempts;
                          } )
                  | None -> search rest))
        in
        search params.n_schedule
      end

(* -------- the public entry point: sliced fast path, then the full
   construction -------- *)

(* The sliced chase derives exactly the unsliced chase's facts over
   every predicate the query (or any kept rule) reads, round by round,
   so certain answers agree in both directions.  The probe goes through
   the same hide-and-normalize machinery and the same watched chase as
   [construct_at], so an entailment carries the depth the full pipeline
   reports.  Anything short of entailment falls through: a countermodel
   must satisfy the dropped rules too. *)
let slice_fast_path ~params (sl : Dataflow.slice) db query =
  Obs.Metrics.incr m_slice_fastpath;
  let hidden = Normalize.hide_query sl.Dataflow.sliced query in
  match Normalize.spade5 hidden.Normalize.theory with
  | exception Normalize.Unsupported _ -> None
  | split ->
      snd
        (watched_chase ~params ?budget:params.budget
           ~max_rounds:params.chase_depth
           ~max_elements:params.max_chase_elements hidden
           split.Normalize.theory db)

let construct ?(params = default_params) ?slice theory db (query : Cq.t) =
  Obs.Metrics.incr m_constructs;
  Obs.Metrics.time t_construct @@ fun () ->
  Obs.Trace.span "pipeline.construct" @@ fun () ->
  let fast =
    match slice with
    | Some sl when Dataflow.is_proper sl -> slice_fast_path ~params sl db query
    | _ -> None
  in
  match fast with
  | Some depth -> Query_entailed depth
  | None -> construct_main ~params theory db query
