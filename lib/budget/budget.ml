(* The unified resource governor: one wall-clock deadline plus fuel
   counters for every kind of work the engines do.  Engines charge at
   their hot-loop checkpoints and catch [Exhausted] at their boundary,
   returning a structured outcome naming the tripped resource together
   with best-effort partial results.

   Fuel counters are shared refs, so a derived budget ([cap],
   [with_deadline_s]) charges the same pool as its parent unless a local
   ceiling explicitly replaces a counter.  [with_fuel_trap] forces
   exhaustion after a fixed number of charge points — deterministic fault
   injection for the test suite, independent of the clock. *)

type resource =
  | Deadline
  | Rounds
  | Elements
  | Facts
  | Rewrite_steps
  | Refine_steps
  | Nodes

let resource_name = function
  | Deadline -> "deadline"
  | Rounds -> "chase rounds"
  | Elements -> "elements"
  | Facts -> "facts"
  | Rewrite_steps -> "rewrite steps"
  | Refine_steps -> "refinement steps"
  | Nodes -> "search nodes"

let pp_resource ppf r = Format.pp_print_string ppf (resource_name r)

(* Every exhaustion — fuel, deadline or injected trap — goes through
   [trip]: the registry counts it and, under tracing, a structured
   [budget.tripped] event names the resource that fired before the
   exception unwinds to the engine boundary. *)
module Obs = Bddfc_obs.Obs

let m_tripped = Obs.Metrics.counter "budget.tripped_total"

type t = {
  deadline : float option; (* absolute, Unix.gettimeofday *)
  trap : int ref option; (* remaining charge points before forced trip *)
  rounds : int ref option;
  elements : int ref option;
  facts : int ref option;
  rewrite_steps : int ref option;
  refine_steps : int ref option;
  nodes : int ref option;
}

exception Exhausted of resource

let trip r =
  Obs.Metrics.incr m_tripped;
  if Obs.Trace.enabled () then
    Obs.Trace.event "budget.tripped" [ ("resource", Obs.Str (resource_name r)) ];
  raise (Exhausted r)

let unlimited =
  {
    deadline = None;
    trap = None;
    rounds = None;
    elements = None;
    facts = None;
    rewrite_steps = None;
    refine_steps = None;
    nodes = None;
  }

let now () = Unix.gettimeofday ()

let v ?deadline_s ?rounds ?elements ?facts ?rewrite_steps ?refine_steps
    ?nodes () =
  let fuel = Option.map ref in
  {
    deadline = Option.map (fun s -> now () +. s) deadline_s;
    trap = None;
    rounds = fuel rounds;
    elements = fuel elements;
    facts = fuel facts;
    rewrite_steps = fuel rewrite_steps;
    refine_steps = fuel refine_steps;
    nodes = fuel nodes;
  }

(* A local ceiling: a fresh counter at [min cap remaining], leaving the
   parent's pool untouched.  Without a cap the parent's counter is
   shared. *)
let capped parent cap =
  match cap with
  | None -> parent
  | Some n ->
      Some (ref (match parent with Some r -> min n !r | None -> n))

let cap ?rounds ?elements ?facts ?rewrite_steps ?refine_steps ?nodes t =
  {
    t with
    rounds = capped t.rounds rounds;
    elements = capped t.elements elements;
    facts = capped t.facts facts;
    rewrite_steps = capped t.rewrite_steps rewrite_steps;
    refine_steps = capped t.refine_steps refine_steps;
    nodes = capped t.nodes nodes;
  }

let with_deadline_s s t =
  let d = now () +. s in
  {
    t with
    deadline = Some (match t.deadline with Some d0 -> min d0 d | None -> d);
  }

let with_fuel_trap ~after t = { t with trap = Some (ref after) }

(* Keep only the wall-clock (and any fault-injection trap): the budget a
   pre-flight hands to a chase it has *proved* terminating — fuel bounds
   would just truncate a run that is known to converge, while the
   deadline still protects against pathological (if finite) blow-ups. *)
let deadline_only t =
  { unlimited with deadline = t.deadline; trap = t.trap }

let counter t = function
  | Deadline -> None
  | Rounds -> t.rounds
  | Elements -> t.elements
  | Facts -> t.facts
  | Rewrite_steps -> t.rewrite_steps
  | Refine_steps -> t.refine_steps
  | Nodes -> t.nodes

(* Every charge point first ticks the trap (so fault injection is
   deterministic, before any clock read), then the deadline, then the
   fuel pool. *)
let tick_trap t r =
  match t.trap with
  | Some n -> if !n <= 0 then trip r else decr n
  | None -> ()

let tick_deadline t =
  match t.deadline with
  | Some d when now () > d -> trip Deadline
  | _ -> ()

let check_deadline t =
  tick_trap t Deadline;
  tick_deadline t

let charge t r n =
  tick_trap t r;
  tick_deadline t;
  match counter t r with
  | None -> ()
  | Some f ->
      if !f < n then begin
        f := 0;
        trip r
      end
      else f := !f - n

let exhausted_now t =
  if match t.deadline with Some d -> now () > d | None -> false then
    Some Deadline
  else
    let spent = function Some f -> !f <= 0 | None -> false in
    if spent t.rounds then Some Rounds
    else if spent t.elements then Some Elements
    else if spent t.facts then Some Facts
    else if spent t.rewrite_steps then Some Rewrite_steps
    else if spent t.refine_steps then Some Refine_steps
    else if spent t.nodes then Some Nodes
    else None

let remaining_s t =
  Option.map (fun d -> Float.max 0. (d -. now ())) t.deadline

let remaining_fuel t r = Option.map (fun f -> !f) (counter t r)

let run _t f = match f () with v -> Ok v | exception Exhausted r -> Error r
