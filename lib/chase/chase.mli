(** The chase (Section 1.1 of the paper), in simultaneous rounds:
    [Chase^{i+1}(D,T) = Chase1(Chase^i(D,T), T)].

    The default variant is the *restricted* (non-oblivious) chase: an
    existential trigger fires only when no witness exists in the state at
    the start of the round, and within a round at most one witness is
    created per demanded head instance — this is what makes Lemma 3
    (skeleton forests of bounded degree) true.  The oblivious variant
    creates one witness per body homomorphism, exactly once ever.

    The default {!strategy} is [Seminaive]: facts are stamped with their
    birth round, a round only enumerates bindings with at least one body
    atom in the previous round's delta, and body evaluation plus witness
    checks read the committed prefix of the live instance through
    birth-windowed joins — no per-round snapshot copy.  [Naive] is the
    reference implementation (copy + full re-join); the two agree round
    by round (see DESIGN.md section 7 and test/test_differential.ml).

    Truncation is governed by a {!Bddfc_budget.Budget.t}: the engine
    charges rounds, fresh elements and added facts, checks the deadline
    cooperatively, and on exhaustion returns the partial prefix together
    with the tripped resource — it never raises
    {!Bddfc_budget.Budget.Exhausted} to callers.  The legacy
    [max_rounds]/[max_elements] knobs are local ceilings layered on top
    of the caller's governor (historical defaults apply when no governor
    is given). *)

open Bddfc_budget
open Bddfc_logic
open Bddfc_structure
open Bddfc_hom

type variant =
  | Restricted
  | Oblivious

type strategy =
  | Naive (** per-round snapshot copy + full re-join (reference) *)
  | Seminaive (** delta-driven, in-place frontier (default) *)

type outcome =
  | Fixpoint (** no trigger fired: the result is a model *)
  | Watched (** the watched predicate appeared; the chase stopped early *)
  | Exhausted of Budget.resource
      (** this budget tripped: the result is a truncated prefix *)

type result = {
  instance : Instance.t;
  rounds : int;
  outcome : outcome;
  base_facts : Fact.t list; (** the facts of the input instance [D] *)
  new_facts_per_round : int list; (** newest round first *)
  watch_round : int option;
      (** first round at which the watched predicate appeared *)
}

val is_model : result -> bool
val pp_outcome : outcome Fmt.t

val instantiate :
  Instance.t -> Eval.binding -> (string -> Element.id) -> Atom.t -> Fact.t
(** Instantiate an atom under a binding; unbound variables go through the
    supplied fresh-element function.  (Exposed for the naive model
    search.) *)

type record =
  round:int -> rule:Rule.t -> binding:Eval.binding -> Fact.t -> unit
(** Derivation hook: called once per fact the chase actually adds, with
    the round it was added in, the rule that fired and the body binding
    the trigger matched under (for existential rules the binding covers
    the body variables only — the invented nulls are in the fact).  It
    is called from {!commit}, the only site where the chase mutates an
    instance, in enumeration order.  {!Provenance} and incremental maintenance ({!Maintain}) record
    through it. *)

type tally = { mutable added : int; mutable nulls : int }
(** What a sequence of commits did: facts added, labelled nulls
    invented. *)

val commit :
  ?record:record -> budget:Budget.t -> round:int -> tally -> Instance.t ->
  Rule.t -> Eval.binding -> unit
(** Fire a trigger: instantiate the rule's head under the body binding,
    existential variables through one shared set of fresh nulls (born at
    [round], parented at the first head frontier element), add the facts
    at birth [round], count them in the tally, call [record] on each fact
    actually added, and charge [Facts] and [Elements] to the budget.  A
    datalog rule is the same call with no existential variables.  The
    caller decides {e whether} the trigger fires (witness check, demand
    dedup); the round engines and Maintain's repair all commit here.
    @raise Bddfc_budget.Budget.Exhausted when a charge trips. *)

val run :
  ?variant:variant ->
  ?strategy:strategy ->
  ?eval:Eval.engine ->
  ?datalog_only:bool ->
  ?watch:Pred.t ->
  ?record:record ->
  ?budget:Budget.t ->
  ?max_rounds:int ->
  ?max_elements:int ->
  Theory.t -> Instance.t -> result
(** Chase a copy of the instance (the input is not mutated; the copy's
    fact births are reset, then stamped with derivation rounds).  [watch]
    stops the chase as soon as a fact of that predicate appears,
    recording the round in [watch_round]. *)

val resume :
  ?strategy:strategy ->
  ?eval:Eval.engine ->
  ?record:record ->
  ?budget:Budget.t ->
  ?max_rounds:int ->
  ?max_elements:int ->
  from_round:int ->
  Theory.t -> Instance.t -> result
(** Resume the restricted chase *in place* on an instance whose
    committed prefix is saturated up to birth round [from_round]: no
    copy, no birth reset, rounds numbered from [from_round + 1].  The
    caller stages its update delta at birth [from_round] beforehand so
    the semi-naive windows pick it up as the first frontier.  Every
    resumed round is a delta-window round, as in {!run}.

    The result's [instance] is the input (mutated); [rounds] is the
    absolute number of the last productive round ([from_round] if none);
    [base_facts] is empty.  On [Fixpoint] the instance is a model.
    Restricted variant only; [max_rounds] caps *resumed* rounds. *)

val run_depth :
  ?variant:variant -> ?strategy:strategy -> ?eval:Eval.engine ->
  ?budget:Budget.t -> depth:int -> Theory.t -> Instance.t -> result
(** [Chase^depth(D, T)].  Element fuel always applies: the governor's
    pool when one is supplied, a generous default otherwise — never
    unbounded, and never a hardcoded ceiling stacked on the governor. *)

val saturate_datalog :
  ?strategy:strategy -> ?eval:Eval.engine -> ?budget:Budget.t ->
  ?max_rounds:int -> Theory.t -> Instance.t -> result
(** Fixpoint of the datalog rules only; never creates elements. *)

type certainty =
  | Entailed of int (** least chase depth at which the query held *)
  | Not_entailed (** the chase reached a fixpoint without the query *)
  | Unknown of Budget.resource * int
      (** this budget exhausted after that many rounds *)

val certain :
  ?strategy:strategy -> ?eval:Eval.engine -> ?budget:Budget.t ->
  ?max_rounds:int -> ?max_elements:int -> Theory.t -> Instance.t -> Cq.t ->
  certainty
(** Certain answering: does [Chase(D, T) |= q]? *)
