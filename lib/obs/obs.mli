(** The observability substrate: a process-wide metrics registry and a
    span tracer.

    Every engine depends on this module (it depends on nothing but the
    stdlib and the clock), registers named metrics at module
    initialization, and charges them on pre-resolved handles — an
    increment is a single record mutation, cheap enough for the join hot
    loop, so counters are {e always on}.  Dumping is what the CLI's
    [--metrics] flag controls.

    Tracing is {e off by default}: {!Trace.span}, {!Trace.event} and
    {!Trace.attr} are one function call and one branch when no sink is
    installed.  Call sites that would allocate to build attribute lists
    must guard with {!Trace.enabled}.

    The contract the test suite enforces (test/test_properties.ml):
    instrumentation is semantically inert — engine results and counter
    values are identical with tracing on and off. *)

type value =
  | Int of int
  | Float of float
  | Bool of bool
  | Str of string

(** Deterministic JSON emission and a minimal parser (round-trip tests,
    bench-blob consumers). *)
module Json : sig
  type t =
    | Null
    | B of bool
    | N of float
    | S of string
    | A of t list
    | O of (string * t) list

  val to_string : t -> string

  val parse : string -> (t, string) result
  (** Strict parse of a complete JSON document.  ASCII escapes only
      ([\uXXXX] above 127 decodes to ['?']). *)

  val member : string -> t -> t option
  (** Object field lookup; [None] on missing keys and non-objects. *)
end

(** The process-wide registry of named counters, gauges and timers. *)
module Metrics : sig
  type counter
  (** Monotonic between {!reset}s: increments are non-negative. *)

  type gauge
  type timer

  val counter : string -> counter
  (** Register (or re-resolve) the counter of this name.  Resolving an
      existing name returns the same underlying metric.
      @raise Invalid_argument if the name is registered as another
      kind. *)

  val gauge : string -> gauge
  val timer : string -> timer

  val incr : counter -> unit
  (** One tick — the hot-loop entry point. *)

  val add : counter -> int -> unit
  (** @raise Invalid_argument on a negative increment. *)

  val value : counter -> int

  val reset_counter : counter -> unit
  (** Zero one counter (e.g. between bench comparisons); counters are
      monotonic {e between} resets. *)

  val set : gauge -> int -> unit
  val gauge_value : gauge -> int

  val record_s : timer -> float -> unit
  (** Record one observation of that many seconds. *)

  val time : timer -> (unit -> 'a) -> 'a
  (** Run the thunk and record its wall time (also on exceptions). *)

  val reset : unit -> unit
  (** Zero every registered metric (registration survives). *)

  type snapshot
  (** An immutable copy of the registry, sorted by name: later updates
      do not show through. *)

  val snapshot : unit -> snapshot

  val find_int : snapshot -> string -> int option
  (** Counter or gauge value by name. *)

  val find_timer : snapshot -> string -> (int * float) option
  (** [(count, total seconds)] of a timer by name. *)

  val ints : snapshot -> (string * int) list
  (** The deterministic part — counters and gauges only, no wall-clock —
      sorted by name.  What the metamorphic tests compare. *)

  val ints_delta :
    before:snapshot -> after:snapshot -> (string * int) list
  (** Per-name difference of {!ints}, dropping zero deltas: the counter
      activity between two snapshots. *)

  val to_json : snapshot -> string
  (** [{"counters":{...},"gauges":{...},"timers":{name:{"count":..,
      "total_s":..,"max_s":..}}}], keys sorted. *)

  val to_bench_json : snapshot -> string
  (** The BENCH_*.json trajectory shape: a flat array of
      [{"name":..,"value":..,"unit":"count"|"s"}] samples. *)

  val pp_text : Format.formatter -> snapshot -> unit
end

(** The span tracer: a tree of timed, attributed spans plus structured
    events, delivered to a pluggable sink. *)
module Trace : sig
  type sink = {
    enter_span : string -> unit;
    exit_span : float -> unit; (** elapsed seconds of the closing span *)
    add_attr : string -> value -> unit;
    add_event : string -> (string * value) list -> unit;
  }

  val set_sink : sink option -> unit
  (** Install or remove the process-wide sink ([None] disables
      tracing). *)

  val enabled : unit -> bool
  (** Guard for call sites whose attribute lists allocate. *)

  val span : string -> (unit -> 'a) -> 'a
  (** Run the thunk inside a named span.  Disabled: one branch, then the
      thunk.  Exceptions close the span and re-raise. *)

  val attr : string -> value -> unit
  (** Attach a key/value to the innermost open span.  No-op when
      disabled. *)

  val event : string -> (string * value) list -> unit
  (** Emit a structured event inside the innermost open span.  No-op
      when disabled. *)

  (** {1 The tree collector} — the library's sink implementation. *)

  type span_node = {
    name : string;
    mutable elapsed_s : float;
    mutable attrs : (string * value) list;
    mutable events : (string * (string * value) list) list;
    mutable children : span_node list;
  }

  type collector

  val collector : unit -> collector
  val sink_of_collector : collector -> sink

  val install_collector : unit -> collector
  (** [set_sink (Some (sink_of_collector c))] for a fresh [c]. *)

  val root : collector -> span_node
  (** The synthetic root span ["trace"]; finished top-level spans are
      its children. *)

  val children : span_node -> span_node list
  (** Program order (the mutable fields accumulate newest-first). *)

  val attrs : span_node -> (string * value) list
  val events : span_node -> (string * (string * value) list) list

  val find_events :
    span_node -> string -> (string * value) list list
  (** All events of that name in the subtree, program order. *)

  val span_to_json : span_node -> string
end
