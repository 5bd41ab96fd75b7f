(** The long-lived reasoning server behind [bddfc serve].

    One process serves many requests over newline-delimited JSON
    ({!Protocol}), either on stdio or on a Unix-domain socket with many
    concurrent connections.  Theories are loaded once into warm
    {!Session}s — parsed and analyzed theory, compiled join plans,
    resident chase prefixes, memoized definite verdicts — and reused
    across requests.

    The robustness envelope, in order of the guarantees it makes:

    - {b Isolation barrier}: every exception a request provokes —
      [Budget.Exhausted], parse errors, injected faults, anything —
      becomes a structured error reply plus a [server.requests_failed]
      tick.  Nothing escapes {!handle_line}; one hostile request can
      never take the process down.
    - {b Deadline enforcement}: each request runs under its own
      {!Bddfc_budget.Budget.t}, with the server-wide default deadline
      ([config.deadline_s]) tightened per request via the ["deadline_s"]
      member, checked once at admission and cooperatively inside every
      engine.
    - {b Backpressure}: at most [config.max_inflight] requests are
      admitted per wake-up ({!handle_burst}); the excess get immediate
      [overloaded] replies carrying a [retry_after_s] hint instead of
      queueing unboundedly.
    - {b Eviction}: when a request fails after engaging a session, the
      session's warm state is dropped ([server.sessions_evicted]) and
      rebuilt from source on next use — poisoned state is never served.
    - {b Graceful shutdown}: a [shutdown] request, SIGINT or SIGTERM
      stops admission, drains the already-read burst, and returns from
      the serve loop normally, so the CLI's [--metrics-out]/[--trace]
      dumps run and the process exits 0. *)

type config = {
  deadline_s : float option; (** default per-request deadline *)
  fuel : int option; (** default per-request uniform fuel *)
  max_inflight : int; (** admission bound per wake-up *)
  chase_rounds : int; (** default resident chase-prefix depth *)
  max_line_bytes : int; (** request lines above this are rejected *)
  faults : Faults.t option; (** fault injection, off by default *)
  hc : Bddfc_hom.Hc.mode;
      (** containment backend for every request (a library setting;
          [bddfc serve] runs the default); replies are bit-identical
          across modes *)
}

val default_config : config
(** No deadline, no fuel, 64 in-flight, 16 chase rounds, 1 MiB lines,
    no faults, {!Bddfc_hom.Hc.default_mode}.  Every request chases with
    the default [Seminaive] strategy. *)

type t

val create : ?config:config -> unit -> t
val stopping : t -> bool

val handle_line : t -> string -> string
(** Serve one request line; never raises (the isolation barrier). *)

val handle_burst : t -> string list -> string list
(** Serve one wake-up's worth of lines in order: the first
    [max_inflight] through {!handle_line}, the rest answered
    [overloaded] with a [retry_after_s] hint. *)

val serve_stdio : t -> unit
(** Read stdin, reply on stdout, until EOF, [shutdown] or a signal. *)

val serve_socket : t -> path:string -> unit
(** Bind a Unix-domain socket and serve every connection from one
    select loop until [shutdown] or a signal; the socket file is
    removed on the way out. *)
