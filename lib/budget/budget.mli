(** The unified resource governor.

    Every engine in the reproduction (chase prefixes, UCQ rewriting, type
    refinement, countermodel search) approximates an infinite object by a
    truncation, so the only acceptable failure mode is a structured
    "unknown" — never a hang, OOM or crash.  A {!t} combines one
    wall-clock deadline with fuel counters for each kind of work; engines
    charge the governor at their hot-loop checkpoints and catch
    {!Exhausted} at their boundary, turning it into a structured outcome
    that names the tripped {!resource} and carries best-effort partial
    results (anytime semantics).

    Budgets compose: {!cap} puts a local ceiling on some counters while
    sharing the rest (and the deadline) with the parent, and
    {!with_deadline_s} tightens only the deadline — this is how the
    pipeline splits its remaining wall-clock across retries.
    {!with_fuel_trap} is deterministic fault injection: it forces
    exhaustion after a fixed number of charge points, independent of the
    clock, so every exhaustion path can be exercised in tests.

    Observability: every exhaustion increments the registry counter
    [budget.tripped_total] and, when tracing is enabled, emits a
    structured [budget.tripped] event naming the resource that fired —
    in addition to the [Exhausted] exception engines already turn into
    [tripped] outcomes. *)

type resource =
  | Deadline (** wall-clock *)
  | Rounds (** chase rounds *)
  | Elements (** fresh elements (labelled nulls) created *)
  | Facts (** facts added to an instance *)
  | Rewrite_steps (** UCQ rewriting steps attempted *)
  | Refine_steps (** refinement iterations *)
  | Nodes (** DFS nodes of the countermodel search *)

val resource_name : resource -> string
val pp_resource : Format.formatter -> resource -> unit

type t

exception Exhausted of resource
(** Cooperative cancellation.  Raised by {!charge} and {!check_deadline};
    engines catch it at their boundary and must never let it escape to
    callers — callers see a structured outcome instead. *)

val unlimited : t
(** No deadline, no fuel: every charge is free. *)

val v :
  ?deadline_s:float ->
  ?rounds:int ->
  ?elements:int ->
  ?facts:int ->
  ?rewrite_steps:int ->
  ?refine_steps:int ->
  ?nodes:int ->
  unit ->
  t
(** A fresh governor.  [deadline_s] is relative seconds from now; omitted
    resources are unlimited. *)

val cap :
  ?rounds:int ->
  ?elements:int ->
  ?facts:int ->
  ?rewrite_steps:int ->
  ?refine_steps:int ->
  ?nodes:int ->
  t ->
  t
(** Local ceilings: each given resource gets a fresh counter of
    [min cap remaining]; the other counters, the deadline and any fuel
    trap stay shared with the parent.  This is how an engine combines a
    caller-supplied governor with its per-call legacy knobs. *)

val with_deadline_s : float -> t -> t
(** Tighten the deadline to [min existing (now + s)]; fuel counters and
    the trap remain shared with the parent. *)

val with_fuel_trap : after:int -> t -> t
(** Deterministic fault injection: the [(after + 1)]-th charge point (any
    {!charge} or {!check_deadline} on this governor or a budget sharing
    its trap) raises {!Exhausted} with the resource being charged. *)

val deadline_only : t -> t
(** Drop every fuel counter, keeping the (shared) deadline and fuel trap.
    For engines that have *proved* their loop terminates (e.g. the chase
    of a weakly acyclic theory): fuel would only truncate a convergent
    run, while the wall-clock still bounds pathological blow-ups. *)

val charge : t -> resource -> int -> unit
(** Consume [n] units of fuel; also checks the deadline and the trap.
    @raise Exhausted when the trap fires, the deadline has passed, or the
    resource's remaining fuel is below [n] (the counter is pinned at 0 so
    later probes still see the exhaustion). *)

val check_deadline : t -> unit
(** A charge point that consumes no fuel.
    @raise Exhausted on a passed deadline or a firing trap. *)

val exhausted_now : t -> resource option
(** Non-raising probe: the first resource that is already spent (passed
    deadline, or a fuel counter at 0).  Used by orchestrators to
    short-circuit stages instead of letting every engine discover the
    exhaustion on its own. *)

val remaining_s : t -> float option
(** Seconds until the deadline (clamped at 0), or [None] if none. *)

val remaining_fuel : t -> resource -> int option
(** Remaining fuel for a counter, or [None] if unlimited. *)

val run : t -> (unit -> 'a) -> ('a, resource) result
(** [run t f] runs [f], converting an escaped {!Exhausted} into
    [Error resource] — a convenience for tests and one-shot callers. *)
