(** Baselines for finite countermodel search.

    [search]: DFS over witness choices (saturate datalog, prune when the
    query holds, branch over reuse-or-create for each unsatisfied
    trigger).  Fast when small models exist; the baseline against which
    the Theorem 2 pipeline is benchmarked.

    [exhaustive_absence]: a complete decision over every structure with
    the given number of extra elements, proving that no countermodel of
    that size exists — the executable content of the Section 5.5 non-FC
    argument.  The question is grounded once into clauses over candidate
    facts and solved by {!Absence}; a refutation is accepted only after
    {!Rup.check} replays it.

    Both accept a {!Bddfc_budget.Budget.t}: DFS nodes, ground clauses and
    solver decisions are charged as node fuel, the deadline is checked
    cooperatively, and exhaustion is reported as a structured outcome
    naming the tripped resource — never as an exception. *)

open Bddfc_budget
open Bddfc_logic
open Bddfc_structure

type search_result =
  | Found of Instance.t
  | Exhausted (** the full bounded space was explored *)
  | Budget_out of { tripped : Budget.resource; nodes : int }
      (** a budget or structural cap stopped the search after visiting
          that many nodes: no conclusion *)

type search_params = {
  max_size : int;
  max_nodes : int;
  max_facts : int;
}

val default_search_params : search_params

val search :
  ?budget:Budget.t -> ?strategy:Bddfc_chase.Chase.strategy ->
  ?eval:Bddfc_hom.Eval.engine -> ?params:search_params ->
  Theory.t -> Instance.t -> Cq.t -> search_result
(** [strategy] selects naive or semi-naive evaluation for the datalog
    saturation inside the model-check loop (default [Seminaive]). *)

type absence_result =
  | No_model (** proved, with a checked RUP refutation *)
  | Counter_model of Instance.t
      (** the countermodel whose candidate set has the least bitmask
          (candidate [i] as bit [i]), re-checked by {!Model_check} *)
  | Too_large of int (** candidate fact count exceeded the guard *)
  | Absence_exhausted of Budget.resource
      (** a budget tripped mid-search: nothing proved *)

val exhaustive_absence :
  ?budget:Budget.t -> ?eval:Bddfc_hom.Eval.engine -> ?max_candidates:int ->
  max_extra:int -> Theory.t -> Instance.t -> Cq.t -> absence_result
(** Is there a model of the theory and the database over its elements
    plus [max_extra] fresh ones that falsifies the query?  [Too_large]
    when more than [max_candidates] (default 24) candidate facts exist.
    Timed by the registry timer [naive.exhaustive].
    @raise Failure if the RUP checker rejects the solver's refutation or
    the model checker its model — an internal bug, never a verdict. *)
