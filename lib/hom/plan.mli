(** Compiled join plans: a CQ/rule body compiled once into an
    integer-register program — variables numbered into an
    [Element.id array] environment, constants pre-resolved per execution,
    per-atom access paths chosen by O(1) index cardinalities — and cached
    per body across chase rounds.

    Execution enumerates exactly the solutions of the interpreted join in
    [Eval] (probe order may differ: scoring reads windowed bucket
    cardinalities by binary search, and ties can break differently) and
    counts probes through the same [eval.join_probes] registry handle.  Plans are
    instance-independent; the cache counts [eval.plans_compiled] and
    [eval.plan_cache_hits]. *)

open Bddfc_logic
open Bddfc_structure

type t

val compile : Atom.t list -> t
(** Compile a body, bypassing the cache. *)

val of_atoms : Atom.t list -> t
(** Cached compilation, keyed by physical identity of the list — rule and
    query bodies are immutable and persist across rounds, so each body
    compiles once per process. *)

val nvars : t -> int
val var_name : t -> int -> string
val reg_of_var : t -> string -> int option

val exec :
  ?init:Element.id Smap.t -> ?upto:int -> Instance.t -> t ->
  (Element.id array -> unit) -> unit
(** Enumerate solutions, all atoms windowed to births [\[0, upto)] (full
    window when absent).  The yielded array is the live register
    environment — read it during the callback, do not retain it. *)

val exec_windowed :
  ?init:Element.id Smap.t -> wsince:int array -> wupto:int array ->
  Instance.t -> t -> (Element.id array -> unit) -> unit
(** Per-atom birth windows [\[wsince.(i), wupto.(i))]; [max_int] as an
    upper bound means unbounded — the semi-naive delta decomposition's
    building block. *)

val exec_filled :
  fill:(int * int) array -> src:Element.id array -> wsince:int array ->
  wupto:int array -> Instance.t -> t -> (Element.id array -> unit) -> unit
(** [exec_windowed] with the registers seeded from another environment:
    each [(dst, s)] of [fill] starts register [dst] at [src.(s)].  The
    chase checks witnesses this way, straight from the body's
    registers. *)

(** {1 Split execution}

    A windowed execution's first step — which atom is probed first, and
    off which access path — is a deterministic function of the instance
    and the windows.  {!choose_root} performs exactly that step (same
    index-op accounting as the monolithic execution) and materializes the
    root candidates in iteration order; {!exec_from_root} then resumes
    the walk below one root candidate.  Running it on every
    [root_facts.(i)] in array order enumerates exactly the solutions of
    {!exec_windowed}, in the same order — this is the decomposition the
    parallel chase shards across domains.  [exec_from_root] only reads
    the plan and the instance, so concurrent calls over a read-only
    instance are safe. *)

type root = {
  root_atom : int; (** index of the atom the monolithic walk probes first *)
  root_facts : Fact.t array;
      (** its candidate facts, in the monolithic probe order; empty when
          some atom cannot match at all *)
}

val choose_root :
  ?init:Element.id Smap.t -> wsince:int array -> wupto:int array ->
  Instance.t -> t -> root option
(** [None] iff the plan has no atoms (the empty body yields [init] once;
    callers handle that directly). *)

val exec_from_root :
  ?init:Element.id Smap.t -> wsince:int array -> wupto:int array ->
  root:int -> Fact.t -> Instance.t -> t -> (Element.id array -> unit) -> unit
(** The sub-walk of one root candidate: probe [fact] against atom [root],
    and on match continue with the normal dynamic ordering over the
    remaining atoms. *)
