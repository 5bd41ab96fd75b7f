(* Test-only oracles for Rewrite.rewrite, Rewrite.kappa, Piece.one_steps
   and Containment.minimize.

   - [rewrite] is the original saturation loop, kept verbatim: every
     candidate is minimized before it meets the kept set.  The library
     tests the raw candidate against the kept set first and minimizes
     only the survivors; the differential suite in test_rewrite.ml holds
     it to this loop, result for result.
   - [minimize] is the original restart-from-the-head minimization: it
     removes the first atom whose deletion keeps the query equivalent,
     by one containment test, and starts over.  Every containment test
     here, the kept set's included, is the structural oracle of
     reference_containment.ml, never the library's matcher.  It removes one
     occurrence by position, so physically shared duplicate atoms go
     one at a time.  [rewrite] uses it, so the
     library's one-pass minimization meets it on every candidate.
   - [walk_steps] is the original piece enumeration: every subset of the
     atoms with the head's predicate, unified with the head and tested
     for soundness, with no size cap.  Its UCQs must be equivalent to
     the library's minimal pieces by closure.
   - [kappa] stops at the first incomplete body, as the library does. *)

open Bddfc_budget
open Bddfc_logic
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

(* ---------------- minimization ---------------- *)

let minimize (q : Cq.t) =
  let without i body = List.filteri (fun j _ -> j <> i) body in
  let removable body i =
    let body' = without i body in
    if body' = [] then false
    else
      let keep_answers =
        List.for_all
          (fun x -> Cq.SS.mem x (Atom.vars_of_atoms body'))
          (Cq.answer q)
      in
      keep_answers
      && Reference_containment.subsumes ~general:q
           (Cq.make ~answer:(Cq.answer q) body')
  in
  let rec go body =
    let positions = List.init (List.length body) Fun.id in
    match List.find_opt (removable body) positions with
    | Some i -> go (without i body)
    | None -> body
  in
  Cq.make ~answer:(Cq.answer q) (go (Cq.body q))

(* ---------------- the subset walk ---------------- *)

(* Nonempty subsets of [l]. *)
let subsets l =
  let rec go = function
    | [] -> [ [] ]
    | x :: rest ->
        let without = go rest in
        List.map (fun s -> x :: s) without @ without
  in
  List.filter (fun s -> s <> []) (go l)

(* Occurrences of variable [v] in atoms. *)
let occurs_in v atoms =
  List.exists (fun a -> List.mem (Term.Var v) (Atom.args a)) atoms

exception Too_wide

(* Every sound one-step rewriting over every piece, however large.
   @raise Too_wide when more than [max_candidates] atoms share the head's
   predicate, since the walk is exponential in them. *)
let walk_steps ?(max_candidates = 8) rule (q : Cq.t) =
  assert (Rule.is_single_head rule);
  let rule = Rule.rename_apart rule in
  let head = List.hd (Rule.head rule) in
  let exvars = Rule.SS.elements (Rule.existential_vars rule) in
  let frontier = Rule.SS.elements (Rule.frontier rule) in
  let candidates =
    List.filter (fun a -> Pred.equal (Atom.pred a) (Atom.pred head)) (Cq.body q)
  in
  if List.length candidates > max_candidates then raise Too_wide;
  List.filter_map
    (fun piece ->
      let theta =
        List.fold_left
          (fun acc a ->
            match acc with
            | None -> None
            | Some s -> Unify.atoms ~init:s head a)
          (Some Subst.empty) piece
      in
      match theta with
      | None -> None
      | Some theta ->
          let resolve t = Subst.resolve_term theta t in
          let z_images = List.map (fun z -> resolve (Term.Var z)) exvars in
          let frontier_images =
            List.map (fun y -> resolve (Term.Var y)) frontier
          in
          let rest_atoms =
            List.filter (fun a -> not (List.memq a piece)) (Cq.body q)
          in
          let rec distinct_pairwise = function
            | [] -> true
            | x :: rest ->
                (not (List.exists (Term.equal x) rest)) && distinct_pairwise rest
          in
          let sound =
            List.for_all
              (fun img ->
                match img with
                | Term.Cst _ -> false
                | Term.Var v ->
                    let class_vars =
                      List.filter
                        (fun x ->
                          match resolve (Term.Var x) with
                          | Term.Var v' -> String.equal v v'
                          | Term.Cst _ -> false)
                        (Cq.SS.elements (Cq.all_vars q))
                    in
                    not (List.exists (fun x -> occurs_in x rest_atoms) class_vars))
              z_images
            && distinct_pairwise z_images
            && List.for_all
                 (fun zi -> not (List.exists (Term.equal zi) frontier_images))
                 z_images
          in
          if not sound then None
          else
            Some
              (Cq.boolean
                 (Subst.apply_atoms (Unify.solved theta)
                    (Rule.body rule @ rest_atoms))))
    (subsets candidates)

(* ---------------- the saturation loop ---------------- *)

let rewrite ?budget ?(one_steps = Piece.one_steps)
    ?(max_disjuncts = 400) ?(max_steps = 20_000) ?(max_disjunct_vars = 16)
    theory (q : Cq.t) =
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
  let q0 = minimize (freeze_answers q) in
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
                 let q' = minimize q' in
                 if _var_count q' > max_disjunct_vars then
                   (* a disjunct this wide signals divergence; dropping it
                      keeps the result a sound under-approximation *)
                   complete := false
                 else begin
                 let subsumed =
                   List.exists
                     (fun k ->
                       Reference_containment.subsumes ~general:k q')
                     !kept
                 in
                 if not subsumed then begin
                   (* drop disjuncts that q' now subsumes *)
                   kept :=
                     q'
                     :: List.filter
                          (fun k ->
                            not
                              (Reference_containment.subsumes
                                 ~general:q' k))
                          !kept;
                   if List.length !kept > max_disjuncts then begin
                     complete := false;
                     raise Exit
                   end;
                   Queue.add q' queue
                 end end)
               (one_steps rule cur))
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

let kappa ?budget ?max_disjuncts ?max_steps ?max_disjunct_vars
    theory =
  Obs.Trace.span "rewrite.kappa" @@ fun () ->
  let rec go kappa = function
    | [] -> { Rewrite.kappa; all_complete = true; tripped = None }
    | rule :: rules ->
        let r =
          rewrite ?budget ?max_disjuncts ?max_steps
            ?max_disjunct_vars theory (Rule.body_query rule)
        in
        let kappa =
          List.fold_left (fun m d -> max m (Cq.num_vars d)) kappa r.ucq
        in
        if r.complete then go kappa rules
        else { Rewrite.kappa; all_complete = false; tripped = r.tripped }
  in
  go 0 (Theory.rules theory)
