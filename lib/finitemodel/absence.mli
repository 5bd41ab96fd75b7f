(** Ground-once small-model search: the decision procedure behind
    {!Naive.exhaustive_absence}.

    The question "is there a model of T and D over D's elements plus
    [max_extra] fresh ones that falsifies Q" becomes one propositional
    formula over the {e candidate facts} (every fact over those elements
    and T's predicates that D lacks):
    - each match of a rule body in the instance holding every candidate
      yields the clause "not all candidate body facts, or one of the head
      witnesses"; a witness with several candidate facts is a
      one-directional Tseitin auxiliary implying each of them;
    - each match of the query yields the clause "not all candidate query
      facts".

    A subset of the candidates, added to D, is a countermodel exactly when
    the formula is satisfiable with those fact variables.  {!solve}
    decides it by DPLL with unit propagation and chronological
    backtracking, and writes a RUP refutation log when there is no model
    (checked independently by {!Rup.check}).

    Work is charged to the budget as [Nodes] fuel, one unit per ground
    body or query match and one per solver decision, each charge checking
    the deadline; the registry counters [naive.absence_clauses] and
    [naive.absence_decisions] count the same units, and both feed
    [naive.nodes].  A body match whose head D already witnesses is
    counted but yields no clause (on sec55, 261 matches give 231
    clauses). *)

open Bddfc_budget
open Bddfc_logic
open Bddfc_structure

type space = {
  base : Instance.t;  (** D plus the fresh elements *)
  candidates : Fact.t array;
      (** candidate fact [i] is propositional variable [i + 1] *)
}

val space : max_extra:int -> Theory.t -> Instance.t -> space
(** The candidate facts, by predicate and then argument tuple. *)

type cnf = {
  num_vars : int;
      (** the candidates first, then one auxiliary per multi-fact witness,
          defined by the binary clauses [[| -aux; v |]] *)
  clauses : int array list;  (** DIMACS literals *)
}

val ground :
  ?eval:Bddfc_hom.Eval.engine -> budget:Budget.t -> Theory.t -> Cq.t ->
  space -> cnf
(** @raise Budget.Exhausted when a charge trips. *)

type outcome =
  | Sat of bool array  (** the values of variables [1 .. branch], in order *)
  | Unsat of int array list  (** a RUP refutation log ending in [[||]] *)

val solve : on_decision:(unit -> unit) -> branch:int -> cnf -> outcome
(** Decide the clauses, branching only on variables [1 .. branch] (every
    auxiliary must be defined over those), highest first and false first.
    The first model found therefore has the lexicographically least
    values of variables [branch, branch - 1, ..., 1].  [on_decision] runs
    before every branch. *)

type answer =
  | Model of Instance.t  (** [base] plus the chosen candidates *)
  | Refuted of cnf * int array list  (** the formula and its refutation *)

val decide :
  ?eval:Bddfc_hom.Eval.engine -> budget:Budget.t -> Theory.t -> Cq.t ->
  space -> answer
(** Ground, then solve with one [Nodes] charge per decision.  Of all the
    countermodels, [Model] is the one whose candidate set, read as a
    binary number with candidate [i] as bit [i], is least.
    @raise Budget.Exhausted when a charge trips. *)
