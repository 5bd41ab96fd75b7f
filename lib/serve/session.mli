(** Warm sessions: the state [bddfc serve] keeps resident so repeat
    requests skip the batch tool's per-invocation costs.

    A session is loaded once from program source; its parsed theory,
    database instance and lint census are built eagerly, and its chase
    prefixes and definite verdicts accumulate lazily as requests reuse
    them.  The source text is retained so eviction can be total: when a
    request fails against a session, the server drops the warm state
    (never the source) and the next request rebuilds from scratch —
    poisoned state is never served.

    A session keeps no compiled join plans: each request compiles the
    bodies it runs ({!Bddfc_hom.Eval.prepare}). *)

open Bddfc_logic
open Bddfc_structure

type warm = {
  theory : Theory.t;
  db : Instance.t;
  lint : Bddfc_analysis.Diagnostic.counts;
  chase : (int, Bddfc_chase.Maintain.state) Hashtbl.t;
      (** resident chase prefixes with their derivation records, keyed
          by round bound; only completed or round-truncated prefixes
          are cached, and assert/retract maintains them in place
          ({!Bddfc_chase.Maintain.apply}) instead of re-chasing *)
  verdicts : (string, (string * Bddfc_obs.Obs.Json.t) list) Hashtbl.t;
      (** memoized definite judge/cert reply fields, keyed by op and
          query text; unknowns are never cached (a later request may
          carry more budget) *)
  slices : (string, Bddfc_analysis.Dataflow.slice) Hashtbl.t;
      (** query-directed rule slices ({!Bddfc_analysis.Dataflow.slice}),
          keyed by the sorted predicate names of the query; a memo hit
          bumps the [analysis.slice_hits] counter *)
}

type updates
(** The net effect of the successful assert/retract batches: for every
    atom they mention, whether its last mention left it present.  It
    replays to the same db facts as the batches themselves and is
    bounded by the distinct atoms updated, not by the number of
    batches. *)

type entry = {
  source : string;
  mutable warm : warm option; (** [None] after an eviction *)
  mutable builds : int; (** parse+analyze passes, including the load *)
  mutable updates : updates;
      (** a rebuild after eviction applies them over the source db, so
          updates survive eviction the way the source text does *)
}

type store

val create : unit -> store

val load : store -> name:string -> source:string -> entry
(** Parse, analyze and store (replacing any same-named session).
    @raise Parser.Parse_error when the source is malformed — the store
    is left untouched. *)

val find : store -> string -> entry option

val warm : store -> entry -> warm
(** The resident state, rebuilding from source (and replaying the
    update log) after an eviction. *)

val log_update :
  entry -> insert:Atom.t list -> retract:Atom.t list -> unit
(** Fold a successful update batch into the entry's replay log.  Only
    batches that fully succeeded may be logged — a failed request
    evicts the warm state instead, and the rebuild replays exactly the
    logged prefix. *)

val evict : store -> string -> bool
(** Drop the warm state; [true] if there was any to drop. *)

val count : store -> int
(** Resident (non-evicted) sessions. *)
