(* Test-only oracle for Rewrite.rewrite and Rewrite.kappa: the original
   saturation loop, kept verbatim.  Every candidate is minimized before
   it meets the kept set.  The library tests the raw candidate against
   the kept set first and minimizes only the survivors; the differential
   suite in test_rewriting.ml holds it to this loop, result for result. *)

open Bddfc_budget
open Bddfc_logic
open Bddfc_hom
open Bddfc_rewriting
module Obs = Bddfc_obs.Obs

let m_steps = Obs.Metrics.counter "rewrite.steps"
let m_rewrites = Obs.Metrics.counter "rewrite.runs"
let t_rewrite = Obs.Metrics.timer "rewrite.run"

let src = Logs.Src.create "bddfc.rewrite.reference" ~doc:"reference UCQ rewriting"

module Log = (val Logs.src_log src : Logs.LOG)

let ans_prefix = "_ans_"

let freeze_answers (q : Cq.t) =
  let s =
    Subst.of_bindings
      (List.map (fun x -> (x, Term.Cst (ans_prefix ^ x))) (Cq.answer q))
  in
  Cq.boolean (Subst.apply_atoms s (Cq.body q))

let unfreeze_answers answer (q : Cq.t) =
  let unfreeze t =
    match t with
    | Term.Cst c when String.length c > String.length ans_prefix
                      && String.sub c 0 (String.length ans_prefix) = ans_prefix
      ->
        Term.Var (String.sub c (String.length ans_prefix)
                    (String.length c - String.length ans_prefix))
    | t -> t
  in
  let body = List.map (Atom.map_terms unfreeze) (Cq.body q) in
  let present = Atom.vars_of_atoms body in
  Cq.make ~answer:(List.filter (fun x -> Cq.SS.mem x present) answer) body

(* Number of variables of a disjunct, counting frozen answer constants as
   variables (they are variables of the unfrozen rewriting). *)
let _var_count (q : Cq.t) =
  let frozen =
    Cq.SS.filter
      (fun c ->
        String.length c > String.length ans_prefix
        && String.sub c 0 (String.length ans_prefix) = ans_prefix)
      (Cq.consts q)
  in
  Cq.num_vars q + Cq.SS.cardinal frozen

let rewrite ?budget ?eval ?hc ?(max_disjuncts = 400) ?(max_steps = 20_000)
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
  let q0 = Containment.minimize ?engine:eval ?hc (freeze_answers q) in
  let kept = ref [ q0 ] in
  let queue = Queue.create () in
  Queue.add q0 queue;
  let generated = ref 0 in
  let complete = ref true in
  let tripped = ref None in
  (try
     while not (Queue.is_empty queue) do
       Budget.check_deadline budget;
       let cur = Queue.pop queue in
       (* [cur] may have been superseded by a more general disjunct *)
       if List.exists (fun k -> Cq.equal k cur) !kept then
         List.iter
           (fun rule ->
             List.iter
               (fun q' ->
                 incr generated;
                 Obs.Metrics.incr m_steps;
                 Budget.charge budget Budget.Rewrite_steps 1;
                 let q' = Containment.minimize ?engine:eval ?hc q' in
                 if _var_count q' > max_disjunct_vars then
                   (* a disjunct this wide signals divergence; dropping it
                      keeps the result a sound under-approximation *)
                   complete := false
                 else begin
                 let subsumed =
                   List.exists
                     (fun k ->
                       Containment.subsumes ?engine:eval ?hc ~general:k q')
                     !kept
                 in
                 if not subsumed then begin
                   (* drop disjuncts that q' now subsumes *)
                   kept :=
                     q'
                     :: List.filter
                          (fun k ->
                            not
                              (Containment.subsumes ?engine:eval ?hc
                                 ~general:q' k))
                          !kept;
                   if List.length !kept > max_disjuncts then begin
                     complete := false;
                     raise Exit
                   end;
                   Queue.add q' queue
                 end end)
               (Piece.one_steps rule cur))
           (Theory.rules theory)
     done
   with
  | Exit -> ()
  | Budget.Exhausted r ->
      complete := false;
      tripped := Some r);
  let ucq = List.rev_map (unfreeze_answers answer) !kept in
  Log.debug (fun m ->
      m "rewrite: %d disjuncts, complete=%b, %d steps" (List.length ucq)
        !complete !generated);
  if Obs.Trace.enabled () then begin
    Obs.Trace.attr "steps" (Obs.Int !generated);
    Obs.Trace.attr "disjuncts" (Obs.Int (List.length ucq));
    Obs.Trace.attr "complete" (Obs.Bool !complete)
  end;
  {
    Rewrite.ucq;
    complete = !complete;
    generated = !generated;
    kept = List.length ucq;
    tripped = !tripped;
  }

let kappa ?budget ?eval ?hc ?max_disjuncts ?max_steps ?max_disjunct_vars
    theory =
  Obs.Trace.span "rewrite.kappa" @@ fun () ->
  let tripped = ref None in
  let per_rule =
    List.map
      (fun rule ->
        let body_q = Rule.body_query rule in
        let r =
          rewrite ?budget ?eval ?hc ?max_disjuncts ?max_steps
            ?max_disjunct_vars theory body_q
        in
        if !tripped = None then tripped := r.Rewrite.tripped;
        let vmax =
          List.fold_left (fun m d -> max m (Cq.num_vars d)) 0 r.ucq
        in
        (Rule.name rule, vmax, r.complete))
      (Theory.rules theory)
  in
  {
    Rewrite.kappa = List.fold_left (fun m (_, v, _) -> max m v) 0 per_rule;
    all_complete = List.for_all (fun (_, _, c) -> c) per_rule;
    per_rule;
    tripped = !tripped;
  }
