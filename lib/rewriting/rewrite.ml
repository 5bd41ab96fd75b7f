(* UCQ rewriting saturation, and with it the BDD property (Definition 2):
   a theory is BDD for a query when the saturation reaches a fixpoint; the
   resulting union of conjunctive queries is the positive first-order
   rewriting Psi'.

   BDD is undecidable in general, so the saturation is budgeted; running
   out of budget yields [complete = false] and a sound under-approximation
   (every disjunct is a correct sufficient condition).  Step counting and
   deadline checks go through the shared Budget governor; [tripped]
   records which resource stopped an incomplete saturation.

   kappa (Section 3.3) rewrites the rule bodies in order and stops at the
   first body whose rewriting is incomplete: its caller only uses a kappa
   that every body reached a fixpoint for, and falls back to the
   syntactic sizes otherwise.  An incomplete result's [kappa] is then the
   largest disjunct width over the bodies rewritten so far, the divergent
   one included, and its [tripped] is that body's.

   Cost: most candidates a saturation generates are subsumed by a kept
   disjunct (105 of the 136 of remark3's query), so a narrow candidate
   meets the kept set before it is minimized, and only the survivors pay
   for minimization.  The kept set holds prepared queries
   (Containment.prepare): each candidate is coded into ints once, and
   that value is the one minimization takes and the kept set keeps.
   Both scans test signatures first (on sec55's judge that settles
   10,434 of the 11,962 pairs, minimization's checks included), and a
   pair they let through is one run of Containment's matcher over the
   two codings.  κ's containment never builds an Instance or compiles
   an Eval plan; on sec55's normalized theory at the pipeline's caps
   that took κ from 11.7 ms to 6.1 ms (minimum of 400 release runs,
   2-core VM).  Nothing outlives the run.  The structural oracle is
   untouched by either.  test/reference_rewrite.ml keeps the
   minimize-first loop as the differential oracle.

   The fixed costs per step are kept off the common path too.  A rule
   whose head predicate the popped disjunct lacks returns from
   Piece.one_steps before it is renamed apart (rewrite.rule_visits
   counts the pairs that go on), and a candidate's width is read off
   its coding ([width]) instead of string sets.  On ex1's normalized
   theory that took κ from 559 to 243 µs, and on sec55's from 7.1 to
   6.4 ms (best of five rounds of 5×100 release runs, 2-core VM;
   DESIGN §13 has the table). *)

open Bddfc_budget
open Bddfc_logic
open Bddfc_hom

type result = {
  ucq : Cq.t list;
  complete : bool;
  generated : int; (* rewriting steps attempted *)
  kept : int; (* disjuncts surviving subsumption *)
  tripped : Budget.resource option; (* what stopped an incomplete run *)
}

let src = Logs.Src.create "bddfc.rewrite" ~doc:"UCQ rewriting"

module Log = (val Logs.src_log src : Logs.LOG)

(* Registry handles (always on); spans and attributes only when a trace
   sink is installed. *)
module Obs = Bddfc_obs.Obs

let m_steps = Obs.Metrics.counter "rewrite.steps"
let m_rewrites = Obs.Metrics.counter "rewrite.runs"
let m_presubsumed = Obs.Metrics.counter "rewrite.presubsumed"
let t_rewrite = Obs.Metrics.timer "rewrite.run"

let ans_prefix = "_ans_"

let freeze_answers (q : Cq.t) =
  let s =
    Subst.of_bindings
      (List.map (fun x -> (x, Term.Cst (ans_prefix ^ x))) (Cq.answer q))
  in
  Cq.boolean (Subst.apply_atoms s (Cq.body q))

let is_frozen_answer c =
  String.length c > String.length ans_prefix
  && String.starts_with ~prefix:ans_prefix c

let unfreeze_answers answer (q : Cq.t) =
  let unfreeze t =
    match t with
    | Term.Cst c when is_frozen_answer c ->
        Term.Var (String.sub c (String.length ans_prefix)
                    (String.length c - String.length ans_prefix))
    | t -> t
  in
  let body = List.map (Atom.map_terms unfreeze) (Cq.body q) in
  let present = Atom.vars_of_atoms body in
  Cq.make ~answer:(List.filter (fun x -> Cq.SS.mem x present) answer) body

(* Number of variables of a disjunct, counting frozen answer constants as
   variables (they are variables of the unfrozen rewriting). *)
let width p = Containment.width ~counts:is_frozen_answer p

let rewrite ?budget ?(max_disjuncts = 400) ?(max_steps = 20_000)
    ?(max_disjunct_vars = 16) theory (q : Cq.t) =
  let budget =
    match budget with
    | Some b -> Budget.cap ~rewrite_steps:max_steps b
    | None -> Budget.v ~rewrite_steps:max_steps ()
  in
  Obs.Metrics.incr m_rewrites;
  Obs.Metrics.time t_rewrite @@ fun () ->
  Obs.Trace.span "rewrite.run" @@ fun () ->
  let single_head =
    List.for_all Rule.is_single_head (Theory.rules theory)
  in
  if not single_head then
    invalid_arg
      "Rewrite.rewrite: multi-head rules present; apply \
       Bddfc_classes.Multihead.to_single_head first";
  let answer = Cq.answer q in
  let q0 = Containment.(minimize (prepare (freeze_answers q))) in
  let kept = ref [ q0 ] in
  let subsumed_by_kept p =
    List.exists (fun k -> Containment.prepared_subsumes ~general:k p) !kept
  in
  let queue = Queue.create () in
  Queue.add (Containment.query q0) queue;
  let generated = ref 0 in
  let complete = ref true in
  let tripped = ref None in
  (try
     while not (Queue.is_empty queue) do
       Budget.check_deadline budget;
       let cur = Queue.pop queue in
       (* [cur] may have been superseded by a more general disjunct *)
       if List.exists (fun k -> Cq.equal (Containment.query k) cur) !kept
       then
         List.iter
           (fun rule ->
             List.iter
               (fun q' ->
                 incr generated;
                 Obs.Metrics.incr m_steps;
                 Budget.charge budget Budget.Rewrite_steps 1;
                 (* [subsumes ~general:k] answers alike for a candidate
                    and its core (they are homomorphically equivalent),
                    and minimizing never widens a candidate: a narrow
                    candidate meets the kept set raw, and only the
                    survivors pay for minimization *)
                 let raw = Containment.prepare q' in
                 let narrow = width raw <= max_disjunct_vars in
                 if narrow && subsumed_by_kept raw then
                   Obs.Metrics.incr m_presubsumed
                 else
                   (* a candidate its minimization leaves alone comes back
                      as its prepared form *)
                   let p = Containment.minimize raw in
                   if width p > max_disjunct_vars then
                     (* a disjunct this wide signals divergence; dropping it
                        keeps the result a sound under-approximation *)
                     complete := false
                   else if narrow || not (subsumed_by_kept p) then begin
                     (* drop disjuncts that the core now subsumes *)
                     kept :=
                       p
                       :: List.filter
                            (fun k ->
                              not (Containment.prepared_subsumes ~general:p k))
                            !kept;
                     if List.length !kept > max_disjuncts then begin
                       complete := false;
                       raise Exit
                     end;
                     Queue.add (Containment.query p) queue
                   end)
               (Piece.one_steps rule cur))
           (Theory.rules theory)
     done
   with
  | Exit -> ()
  | Budget.Exhausted r ->
      complete := false;
      tripped := Some r);
  let ucq =
    List.rev_map (fun k -> unfreeze_answers answer (Containment.query k)) !kept
  in
  Log.debug (fun m ->
      m "rewrite: %d disjuncts, complete=%b, %d steps" (List.length ucq)
        !complete !generated);
  if Obs.Trace.enabled () then begin
    Obs.Trace.attr "steps" (Obs.Int !generated);
    Obs.Trace.attr "disjuncts" (Obs.Int (List.length ucq));
    Obs.Trace.attr "complete" (Obs.Bool !complete)
  end;
  {
    ucq;
    complete = !complete;
    generated = !generated;
    kept = List.length ucq;
    tripped = !tripped;
  }

(* Evaluate a UCQ rewriting over an instance (Boolean). *)
let ucq_holds ?eval inst ucq =
  List.exists (fun q -> Eval.holds ?engine:eval inst q) ucq

(* --------------------------------------------------------------- *)
(* kappa (Section 3.3): the maximal number of variables in a       *)
(* positive rewriting of the body of some rule of the theory.      *)
(* --------------------------------------------------------------- *)

type kappa_result = {
  kappa : int; (* max vars over the disjuncts of the bodies rewritten *)
  all_complete : bool; (* every body rewriting reached a fixpoint *)
  tripped : Budget.resource option; (* what stopped the divergent body *)
}

let kappa ?budget ?eval:_ ?hc:_ ?max_disjuncts ?max_steps ?max_disjunct_vars
    theory =
  Obs.Trace.span "rewrite.kappa" @@ fun () ->
  let rec go kappa = function
    | [] -> { kappa; all_complete = true; tripped = None }
    | rule :: rules ->
        let r =
          rewrite ?budget ?max_disjuncts ?max_steps
            ?max_disjunct_vars theory (Rule.body_query rule)
        in
        let kappa =
          List.fold_left (fun m d -> max m (Cq.num_vars d)) kappa r.ucq
        in
        if r.complete then go kappa rules
        else { kappa; all_complete = false; tripped = r.tripped }
  in
  go 0 (Theory.rules theory)
