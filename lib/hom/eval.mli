(** Conjunctive-query evaluation: a backtracking join with a greedy
    most-constrained-atom-first ordering over the instance indexes.

    Two {!engine}s produce the same solution sets: [Compiled] (default)
    runs integer-register plans from {!Plan}; [Interp] is the
    original interpreter, kept as a differential oracle.  Probe *order*
    may differ between them (scoring heuristics differ), solution sets
    never do.

    The joins are birth-aware: [?upto] restricts every atom to facts born
    strictly before that round (the committed prefix of a chase round,
    without copying the instance), and {!iter_solutions_delta} is the
    semi-naive decomposition — only bindings touching the delta
    [\[since, upto)], each enumerated exactly once. *)

open Bddfc_logic
open Bddfc_structure

type binding = Element.id Smap.t

type engine =
  | Compiled (** per-body query plans (default) *)
  | Interp (** the reference interpreter (differential oracle) *)

val engine_tag : engine -> string
(** ["compiled"] / ["interp"] — the CLI and trace spelling. *)

val iter_solutions :
  ?init:binding -> ?upto:int -> ?engine:engine -> Instance.t -> Atom.t list ->
  (binding -> unit) -> unit
(** Enumerate all satisfying assignments of the atom list, extending the
    initial binding.  Unknown constants simply fail to match.  [upto]
    restricts every atom to facts with birth [< upto]. *)

val iter_solutions_delta :
  ?init:binding -> since:int -> ?upto:int -> ?engine:engine -> Instance.t ->
  Atom.t list -> (binding -> unit) -> unit
(** Exactly the bindings of [iter_solutions ?upto] that match at least
    one fact with birth in [\[since, upto)], each yielded once.  With
    [since <= 0] this is [iter_solutions ?upto] (every binding is new). *)

val first_solution :
  ?init:binding -> ?upto:int -> ?engine:engine -> Instance.t -> Atom.t list ->
  binding option

val satisfiable :
  ?init:binding -> ?upto:int -> ?engine:engine -> Instance.t -> Atom.t list ->
  bool

val holds :
  ?init:binding -> ?upto:int -> ?engine:engine -> Instance.t -> Cq.t -> bool

val answers : ?engine:engine -> Instance.t -> Cq.t -> Element.id list list
(** Distinct answer tuples, in the order of the query's answer variables. *)

val holds_at : ?engine:engine -> Instance.t -> Cq.t -> string -> Element.id -> bool
(** [holds_at inst q y e]: the paper's [C |= exists x. Psi(x, e)] — the
    query with its free variable [y] bound to [e]. *)

(** {1 Prepared bodies}

    A {!prepared} is a body compiled once to its plan, for a holder that
    runs the body many times: a chase run holds one per rule, a
    containment test's general side holds one, a model check holds one
    per rule for the call.  The plan lives as long as its holder keeps
    the value.  The atom-list entry points above prepare their body for
    the one call.

    Solutions come out as {e register environments}: an
    [Element.id array] indexed by the registers of {!plan} (see
    {!Plan.var_name}).  The yielded array is live — read it during the
    callback, copy it to keep it. *)

type prepared

val prepare : Atom.t list -> prepared
(** Compile a body to its plan (one [eval.plans_compiled]). *)

val plan : prepared -> Plan.t

val binding_of_prepared : prepared -> Element.id array -> binding
(** The named binding of a register environment (bound registers
    only). *)

val iter_env :
  ?engine:engine -> ?init:binding -> ?since:int -> ?upto:int -> Instance.t ->
  prepared -> (Element.id array -> unit) -> unit
(** The solutions of [iter_solutions ?init ?upto] ([since <= 0], the
    default) or of [iter_solutions_delta ?init ~since ?upto], same
    order, as register environments.  Under [Interp] each named binding
    is translated into the plan's registers. *)

val first_env :
  ?engine:engine -> ?init:binding -> ?upto:int -> Instance.t -> prepared ->
  Element.id array option
(** The first environment of [iter_env ?init ?upto], copied: the
    prepared [first_solution], and [satisfiable] when compared with
    [None]. *)

val satisfiable_filled :
  fill:(int * int) array -> src:Element.id array -> wsince:int array ->
  wupto:int array -> Instance.t -> prepared -> bool
(** Satisfiability of a prepared body under per-atom birth windows, its
    registers seeded from another environment ({!Plan.exec_filled}) —
    the restricted chase's witness check. *)

(** {1 Instrumentation} *)

val probe_count : unit -> int
(** Join probes (candidate facts tried against a partial binding, under
    either engine) since the last {!reset_probes} — the bench harness's
    engine and strategy comparator.  The registry also carries
    [eval.index_ops] (probe-equivalent index operations: candidates
    materialized by the interpreter; cardinality reads plus probes for
    compiled plans) and [eval.plans_compiled], one per {!prepare}. *)

val reset_probes : unit -> unit
