(* Baselines for finite countermodel search.

   [search] is a depth-first search over witness choices: saturate the
   datalog rules, prune when the query holds, pick an unsatisfied
   existential trigger, and branch over reusing each existing element as
   the witness or creating a fresh one.  It finds small models quickly
   when they exist and is the baseline the Theorem 2 pipeline is compared
   against in the benchmarks.

   [exhaustive_absence] decides, for all structures with at most
   [max_extra] fresh elements at once, whether one is a countermodel: it
   *proves* that none exists (the executable content of the Section 5.5
   non-FC argument).  The question is grounded once into clauses over the
   candidate facts and decided by a unit-propagating DPLL solver
   (Absence); a "no model" answer stands only once the independent RUP
   checker (Rup) has replayed the solver's refutation.  The candidate
   count is still guarded, since the grounding is polynomial in the
   domain but the solver's search is exponential in the worst case.

   Both are governed by a Budget.t: DFS nodes, ground clauses and solver
   decisions are charged as node fuel, the deadline is checked
   cooperatively, and exhaustion surfaces as a structured outcome naming
   the tripped resource — never as an exception. *)

open Bddfc_budget
open Bddfc_logic
open Bddfc_structure
open Bddfc_hom
open Bddfc_chase

type search_result =
  | Found of Instance.t
  | Exhausted (* full search space explored: no model within bounds *)
  | Budget_out of { tripped : Budget.resource; nodes : int }

(* Registry handles (always on); spans only when a trace sink is
   installed.  [naive.nodes] counts DFS nodes of [search] and the ground
   clauses and solver decisions of [exhaustive_absence] alike: units of
   countermodel work. *)
module Obs = Bddfc_obs.Obs

let m_nodes = Obs.Metrics.counter "naive.nodes"
let m_searches = Obs.Metrics.counter "naive.searches"
let t_search = Obs.Metrics.timer "naive.search"
let t_exhaustive = Obs.Metrics.timer "naive.exhaustive"

type search_params = {
  max_size : int; (* total element budget *)
  max_nodes : int; (* DFS node budget *)
  max_facts : int;
}

let default_search_params = { max_size = 12; max_nodes = 20_000; max_facts = 400 }

exception Got_model of Instance.t

let rec all_assignments elements = function
  | [] -> [ [] ]
  | z :: zs ->
      let rest = all_assignments elements zs in
      List.concat_map (fun e -> List.map (fun a -> (z, e) :: a) rest) elements

let search ?budget ?strategy ?eval ?(params = default_search_params) theory
    db (query : Cq.t) =
  let budget =
    match budget with
    | Some b -> Budget.cap ~nodes:params.max_nodes b
    | None -> Budget.v ~nodes:params.max_nodes ()
  in
  Obs.Metrics.incr m_searches;
  Obs.Metrics.time t_search @@ fun () ->
  Obs.Trace.span "naive.search" @@ fun () ->
  let nodes = ref 0 in
  let complete = ref true in
  (* structural caps hit along the way, reported as the tripped resource
     when no fuel pool ran dry *)
  let limited : Budget.resource option ref = ref None in
  let note r = if !limited = None then limited := Some r in
  (* the unsatisfied triggers worth branching on: the datalog rules hold
     after every saturation, so only the existential ones are checked *)
  let existential =
    Theory.make (List.filter Rule.is_existential (Theory.rules theory))
  in
  (* the query and the existential rules' bodies and heads are compiled
     once for the whole search, not at every node *)
  let query_body = Eval.prepare (Cq.body query) in
  let violations = Model_check.violations ~limit:1 ?eval existential in
  let rec explore inst =
    incr nodes;
    Obs.Metrics.incr m_nodes;
    Budget.check_deadline budget;
    Budget.charge budget Budget.Nodes 1;
    let sat = Chase.saturate_datalog ?strategy ?eval ~budget theory inst in
    let inst = sat.Chase.instance in
    if not (Chase.is_model sat) then begin
      (* incomplete saturation cannot support a trigger search on this
         branch: mark and prune rather than risk a bogus model *)
      (match sat.Chase.outcome with
      | Chase.Exhausted r -> note r
      | _ -> note Budget.Rounds);
      complete := false
    end
    else if Eval.first_env ?engine:eval inst query_body <> None then
      () (* dead branch *)
    else if Instance.num_facts inst > params.max_facts then begin
      note Budget.Facts;
      complete := false
    end
    else
      match violations inst with
      | [] -> raise (Got_model inst)
      | { Model_check.rule; binding } :: _ ->
          let zs = Rule.SS.elements (Rule.existential_vars rule) in
          let frontier = Rule.frontier rule in
          let base_binding =
            Smap.filter
              (fun x _ -> Rule.SS.mem x frontier)
              (Smap.of_list binding)
          in
          let head_facts inst' assignment =
            let full =
              List.fold_left
                (fun b (z, e) -> Smap.add z e b)
                base_binding assignment
            in
            List.map
              (fun a ->
                Chase.instantiate inst' full
                  (fun x -> invalid_arg ("Naive.search: unbound " ^ x))
                  a)
              (Rule.head rule)
          in
          (* reuse existing elements first: prefer small models *)
          List.iter
            (fun assignment ->
              let child = Instance.copy inst in
              List.iter
                (fun f -> ignore (Instance.add_fact child f))
                (head_facts child assignment);
              explore child)
            (all_assignments (Instance.elements inst) zs);
          (* then a fresh witness *)
          if Instance.num_elements inst < params.max_size then begin
            let child = Instance.copy inst in
            let assignment =
              List.map
                (fun z ->
                  ( z,
                    Instance.fresh_null child ~birth:0 ~rule:(Rule.name rule)
                      ~parent:None ))
                zs
            in
            List.iter
              (fun f -> ignore (Instance.add_fact child f))
              (head_facts child assignment);
            explore child
          end
          else begin
            note Budget.Elements;
            complete := false
          end
  in
  let result =
    match explore (Instance.copy db) with
    | () ->
        if !complete then Exhausted
        else
          Budget_out
            {
              tripped = Option.value !limited ~default:Budget.Nodes;
              nodes = !nodes;
            }
    | exception Got_model m -> Found m
    | exception Budget.Exhausted r ->
        Budget_out { tripped = r; nodes = !nodes }
  in
  if Obs.Trace.enabled () then begin
    Obs.Trace.attr "nodes" (Obs.Int !nodes);
    Obs.Trace.attr "found"
      (Obs.Bool (match result with Found _ -> true | _ -> false))
  end;
  result

(* ----------------------------------------------------------------- *)
(* Exhaustive absence                                                 *)
(* ----------------------------------------------------------------- *)

type absence_result =
  | No_model (* proved: no countermodel with this many extra elements *)
  | Counter_model of Instance.t
  | Too_large of int (* candidate fact count exceeded the guard *)
  | Absence_exhausted of Budget.resource
      (* a budget tripped mid-search: nothing proved *)

(* Ground the question once and decide it (Absence); a refutation is
   trusted only after the independent RUP checker replays it, and a model
   only after the model checker and the query evaluator re-check it.
   Either check failing is a bug in the solver or the grounding, never a
   verdict. *)
let exhaustive_absence ?budget ?eval ?(max_candidates = 24) ~max_extra
    theory db query =
  let budget = Option.value budget ~default:Budget.unlimited in
  Obs.Metrics.time t_exhaustive @@ fun () ->
  Obs.Trace.span "naive.exhaustive_absence" @@ fun () ->
  let space = Absence.space ~max_extra theory db in
  let k = Array.length space.Absence.candidates in
  if k > max_candidates then Too_large k
  else
    match Absence.decide ?eval ~budget theory query space with
    | Absence.Model m ->
        if
          Model_check.is_model ?eval theory m
          && not (Eval.holds ?engine:eval m query)
        then Counter_model m
        else failwith "Naive.exhaustive_absence: the solver's model is no \
                       countermodel"
    | Absence.Refuted (cnf, log) ->
        if Rup.check cnf.Absence.clauses log then No_model
        else failwith "Naive.exhaustive_absence: the RUP checker rejected \
                       the solver's refutation"
    | exception Budget.Exhausted r -> Absence_exhausted r
