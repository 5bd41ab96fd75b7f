(** Incremental chase maintenance: delta assert/retract on a saturated
    instance.

    {!saturate} chases a database while recording first-derivation
    edges (Chase's [record] hook); {!apply} then maintains the result
    under a batch of EDB insertions and retractions without re-chasing
    from scratch.  Insertions are staged at a fresh birth round and the
    semi-naive chase resumed over the delta; retractions run DRed
    delete/rederive — overdelete the downward closure along the
    recorded edges (one pass, because recorded bodies are born strictly
    before their heads), then repair head-first: each cone fact unifies
    against the rule heads and the seeded body join decides whether it
    (datalog) or a fresh-null refire (existential) comes back, at
    cone-sized cost.  When the overdeleted cone exceeds
    [bailout] x |instance|, or the state is not a fixpoint, {!apply}
    falls back to a full re-chase of the updated database
    (maintain.bailouts).

    A maintained [Fixpoint] state is a universal model of the updated
    database, hom-equivalent (both directions) to a from-scratch chase —
    the differential suite (test/test_maintain.ml) holds it to that
    across the zoo, fuzzed theories and containment backends.  DESIGN.md section 14 has the correctness argument.

    Counters: maintain.runs, maintain.facts_deleted,
    maintain.facts_rederived, maintain.facts_inserted,
    maintain.bailouts, maintain.rounds_resumed. *)

open Bddfc_budget
open Bddfc_logic
open Bddfc_structure

type state = {
  inst : Instance.t;  (** the saturated (or truncated) chase instance *)
  reasons : Provenance.reason Fact.Table.t;
      (** first recorded derivation per fact; base facts are [Given] *)
  rounds : int;
      (** absolute round counter: the last productive chase round, and
          after maintenance the birth round of the newest delta —
          monotone across {!apply} calls, not a from-scratch depth *)
  outcome : Chase.outcome;
}

type stats = {
  deleted : int;  (** facts removed by the overdelete pass *)
  rederived : int;  (** overdeleted facts the repair rounds restored *)
  inserted : int;  (** new base facts plus fresh derived facts *)
  resumed_rounds : int;  (** productive chase rounds after the staging round *)
  bailed_out : bool;  (** the batch fell back to a full re-chase *)
}

val saturate :
  ?strategy:Chase.strategy ->
  ?eval:Bddfc_hom.Eval.engine ->
  ?budget:Budget.t ->
  ?max_rounds:int ->
  ?max_elements:int ->
  Theory.t -> Instance.t -> state
(** {!Provenance.run}: [Chase.run] with derivation recording; same
    truncation semantics (the state's [outcome] may be [Exhausted _],
    and such a state is maintained by re-chasing on every {!apply}). *)

val update_db : Instance.t -> insert:Atom.t list -> retract:Atom.t list ->
  int * int
(** Apply an update batch to a {e base} database in place — retractions
    first, then insertions, so an atom in both ends up present.
    Retractions of absent facts (including atoms naming unknown
    constants) are ignored.  Returns [(inserted, retracted)] counts of
    facts actually changed.
    @raise Invalid_argument on a non-ground atom. *)

val apply :
  ?strategy:Chase.strategy ->
  ?eval:Bddfc_hom.Eval.engine ->
  ?budget:Budget.t ->
  ?max_rounds:int ->
  ?max_elements:int ->
  ?bailout:float ->
  Theory.t -> db:Instance.t -> state ->
  insert:Atom.t list -> retract:Atom.t list ->
  state * stats
(** Maintain [state] under an update batch.  [db] is the {e already
    updated} base database (see {!update_db}) — used only by the
    bailout re-chase.  The state's instance and reasons are mutated in
    place; on success the returned state is the same record refreshed.
    Retractions that do not name recorded base facts are no-ops.
    [max_rounds] caps resumed rounds (and the bailout re-chase).

    If the resumption exhausts its budget the state is {e poisoned} —
    deletions landed but rederivation is incomplete, which is not a
    chase prefix of anything — and [Budget.Exhausted] is raised instead
    of returning; callers must discard the state (the server's
    eviction-on-failure path does exactly that).
    @raise Invalid_argument on a non-ground atom in either batch. *)
