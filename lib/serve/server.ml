(* The long-lived reasoning server: warm sessions, a per-request
   isolation barrier, deadline enforcement, bounded in-flight admission
   with overload replies, eviction of suspect sessions, and graceful
   drain on shutdown/SIGINT/SIGTERM.

   The core is I/O-free: [handle_line] serves one request line and never
   raises, [handle_burst] applies the admission bound to one wake-up's
   worth of lines.  The select loop at the bottom feeds them from stdio
   or a Unix-domain socket; tests feed them directly. *)

module Obs = Bddfc_obs.Obs
module Json = Obs.Json
module Budget = Bddfc_budget.Budget
module Chase = Bddfc_chase.Chase
module Maintain = Bddfc_chase.Maintain
module Eval = Bddfc_hom.Eval
module Judge = Bddfc_finitemodel.Judge
module Pipeline = Bddfc_finitemodel.Pipeline
module Certificate = Bddfc_finitemodel.Certificate
open Bddfc_logic
open Bddfc_structure

(* ------------------------------ metrics --------------------------- *)

let m_requests = Obs.Metrics.counter "server.requests_total"
let m_failed = Obs.Metrics.counter "server.requests_failed"
let m_overloaded = Obs.Metrics.counter "server.overloaded_total"
let m_evicted = Obs.Metrics.counter "server.sessions_evicted"
let m_built = Obs.Metrics.counter "server.sessions_built"
let g_uptime = Obs.Metrics.gauge "server.uptime_s"
let t_request = Obs.Metrics.timer "server.request"

(* ------------------------------ config ---------------------------- *)

type config = {
  deadline_s : float option;
  fuel : int option;
  max_inflight : int;
  chase_rounds : int;
  max_line_bytes : int;
  faults : Faults.t option;
}

let default_config =
  {
    deadline_s = None;
    fuel = None;
    max_inflight = 64;
    chase_rounds = 16;
    max_line_bytes = 1 lsl 20;
    faults = None;
  }

type t = {
  config : config;
  store : Session.store;
  started : float;
  mutable stop : bool;
  mutable engaged : string option;
      (* session the in-flight request has touched: evicted if the
         request fails, so poisoned warm state is never served *)
}

let create ?(config = default_config) () =
  {
    config;
    store = Session.create ();
    started = Unix.gettimeofday ();
    stop = false;
    engaged = None;
  }

let stopping t = t.stop

(* ----------------------------- dispatch --------------------------- *)

(* Structured user-facing failures raised inside [dispatch]; only the
   isolation barrier catches them. *)
exception Reply_error of string * string * (string * Json.t) list

let fail code msg = raise (Reply_error (code, msg, []))
let int n = Json.N (float_of_int n)

let require what = function
  | Some v -> v
  | None -> fail "bad_request" (Printf.sprintf "missing \"%s\" member" what)

(* One governor per request: the server-wide default fuel/deadline,
   tightened by the request's own overrides, plus any injected trap. *)
let request_budget t ~fault (r : Protocol.request) =
  let fuel = match r.Protocol.fuel with Some _ as f -> f | None -> t.config.fuel in
  let b =
    Budget.v ?rounds:fuel ?elements:fuel ?facts:fuel ?rewrite_steps:fuel
      ?refine_steps:fuel ?nodes:fuel ()
  in
  let b =
    match (r.Protocol.deadline_s, t.config.deadline_s) with
    | Some s, _ | None, Some s -> Budget.with_deadline_s s b
    | None, None -> b
  in
  let b =
    match r.Protocol.trap with
    | Some n -> Budget.with_fuel_trap ~after:n b
    | None -> b
  in
  match fault with
  | Some (Faults.Trap n) -> Budget.with_fuel_trap ~after:n b
  | _ -> b

let poison = function
  | Some Faults.Poison -> raise Faults.Injected
  | _ -> ()

(* Resolve the request's session, mark it engaged (eviction target on
   failure), and only then admit the request against its budget — a
   tripped admission check or a poison fault lands after the mark, so
   the suspect session is rebuilt rather than served. *)
let with_session t ~fault b (r : Protocol.request) k =
  let name = require "session" r.Protocol.session in
  match Session.find t.store name with
  | None -> fail "unknown_session" ("no session named " ^ name)
  | Some entry ->
      t.engaged <- Some name;
      Budget.check_deadline b;
      poison fault;
      let rebuilt = entry.Session.warm = None in
      let w = Session.warm t.store entry in
      if rebuilt then Obs.Metrics.incr m_built;
      k name w

let judge_fields (v : Judge.verdict) =
  let evidence, definite =
    match v.Judge.evidence with
    | Judge.Certain d -> ([ ("verdict", Json.S "certain"); ("depth", int d) ], true)
    | Judge.Witness (cert, _) ->
        ( [ ("verdict", Json.S "countermodel");
            ("elements", int (Instance.num_elements cert.Certificate.model));
            ("verified", Json.B (Certificate.is_valid cert)) ],
          true )
    | Judge.No_small_model { max_extra; search_nodes } ->
        ( [ ("verdict", Json.S "no_small_model");
            ("max_extra", int max_extra);
            ("search_nodes", int search_nodes) ],
          false )
    | Judge.Open why ->
        ([ ("verdict", Json.S "open"); ("why", Json.S why) ], false)
  in
  ( evidence
    @ [ ( "conjecture_applies",
          match v.Judge.scope with
          | Some s -> Json.B s.Judge.conjecture_applies
          | None -> Json.Null );
        ("chase_terminating", Json.B v.Judge.chase_terminating) ],
    definite )

let cert_fields outcome =
  match outcome with
  | Pipeline.Model (cert, _) ->
      ( [ ("result", Json.S "model");
          ("elements", int (Instance.num_elements cert.Certificate.model));
          ("verified", Json.B (Certificate.is_valid cert)) ],
        true )
  | Pipeline.Query_entailed d ->
      ([ ("result", Json.S "certain"); ("depth", int d) ], true)
  | Pipeline.Unknown (why, stats) ->
      ( [ ("result", Json.S "unknown"); ("why", Json.S why) ]
        @ (match stats.Pipeline.tripped with
          | Some res -> [ ("resource", Json.S (Budget.resource_name res)) ]
          | None -> []),
        false )

(* The query-directed rule slice for a warm session, memoized per
   session and keyed by the query's sorted predicate names; a memo hit
   bumps the analysis.slice_hits counter.  judge and cert hand it to the
   pipeline's sliced entailment fast path (DESIGN.md section 12). *)
module Dataflow = Bddfc_analysis.Dataflow

let slice_of (w : Session.warm) (q : Cq.t) =
  let key =
    String.concat ","
      (List.sort_uniq String.compare
         (List.map (fun a -> Pred.name (Atom.pred a)) (Cq.body q)))
  in
  match Hashtbl.find_opt w.Session.slices key with
  | Some sl ->
      Dataflow.note_slice_hit ();
      sl
  | None ->
      let sl = Dataflow.slice w.Session.theory (Ucq.of_cq q) in
      Hashtbl.add w.Session.slices key sl;
      sl

(* Memoization: only definite answers (certain / verified countermodel)
   are cached — an unknown may be a budget artifact, and a later request
   can carry more budget. *)
let memoized w key ~session compute =
  match Hashtbl.find_opt w.Session.verdicts key with
  | Some fields ->
      ("session", Json.S session) :: fields @ [ ("cached", Json.B true) ]
  | None ->
      let fields, definite = compute () in
      if definite then Hashtbl.replace w.Session.verdicts key fields;
      ("session", Json.S session) :: fields @ [ ("cached", Json.B false) ]

let dispatch t ~fault (r : Protocol.request) =
  let b = request_budget t ~fault r in
  match r.Protocol.op with
  | Protocol.Ping ->
      Budget.check_deadline b;
      poison fault;
      (Protocol.Ping, [])
  | Protocol.Shutdown ->
      Budget.check_deadline b;
      poison fault;
      t.stop <- true;
      (Protocol.Shutdown, [ ("draining", Json.B true) ])
  | Protocol.Stats ->
      Budget.check_deadline b;
      poison fault;
      Obs.Metrics.set g_uptime
        (int_of_float (Unix.gettimeofday () -. t.started));
      ( Protocol.Stats,
        [ ("sessions", int (Session.count t.store));
          ("requests_total", int (Obs.Metrics.value m_requests));
          ("requests_failed", int (Obs.Metrics.value m_failed));
          ("overloaded_total", int (Obs.Metrics.value m_overloaded));
          ("sessions_evicted", int (Obs.Metrics.value m_evicted));
          ("uptime_s", Json.N (Unix.gettimeofday () -. t.started)) ] )
  | Protocol.Load ->
      let name = require "session" r.Protocol.session in
      let source = require "program" r.Protocol.program in
      Budget.check_deadline b;
      poison fault;
      let entry = Session.load t.store ~name ~source in
      Obs.Metrics.incr m_built;
      let w = Option.get entry.Session.warm in
      ( Protocol.Load,
        [ ("session", Json.S name);
          ("rules", int (Theory.size w.Session.theory));
          ("facts", int (Instance.num_facts w.Session.db));
          ("lint_errors", int w.Session.lint.errors);
          ("lint_warnings", int w.Session.lint.warnings) ] )
  | Protocol.Evict ->
      let name = require "session" r.Protocol.session in
      Budget.check_deadline b;
      poison fault;
      let evicted = Session.evict t.store name in
      if evicted then Obs.Metrics.incr m_evicted;
      (Protocol.Evict, [ ("session", Json.S name); ("evicted", Json.B evicted) ])
  | Protocol.Query ->
      with_session t ~fault b r @@ fun name w ->
      let qtext = require "query" r.Protocol.query in
      let q = Parser.parse_query qtext in
      let rounds = Option.value r.Protocol.rounds ~default:t.config.chase_rounds in
      let cached, st =
        match Hashtbl.find_opt w.Session.chase rounds with
        | Some st -> (true, st)
        | None ->
            let st =
              Maintain.saturate ~budget:b ~max_rounds:rounds
                w.Session.theory w.Session.db
            in
            (* a prefix truncated at the requested depth is the queryable
               object; any other exhaustion is a failed request and the
               partial prefix is discarded, never cached *)
            (match st.Maintain.outcome with
            | Chase.Exhausted Budget.Rounds | Chase.Fixpoint | Chase.Watched ->
                Hashtbl.replace w.Session.chase rounds st
            | Chase.Exhausted other -> raise (Budget.Exhausted other));
            (false, st)
      in
      let complete =
        match st.Maintain.outcome with
        | Chase.Fixpoint | Chase.Watched -> true
        | Chase.Exhausted _ -> false
      in
      ( Protocol.Query,
        [ ("session", Json.S name);
          ("holds", Json.B (Eval.holds st.Maintain.inst q));
          ("rounds", int st.Maintain.rounds);
          ("facts", int (Instance.num_facts st.Maintain.inst));
          ("complete", Json.B complete);
          ("cached", Json.B cached) ] )
  | Protocol.Assert | Protocol.Retract ->
      with_session t ~fault b r @@ fun name w ->
      let text = require "facts" r.Protocol.facts in
      let atoms = Parser.parse_atoms text in
      let insert, retract =
        if r.Protocol.op = Protocol.Assert then (atoms, []) else ([], atoms)
      in
      let ins, rem = Maintain.update_db w.Session.db ~insert ~retract in
      (* maintain every resident prefix in ascending key order, so
         budget trip points are deterministic; a truncated prefix has no
         fixpoint to resume from and Maintain.apply re-chases it at its
         own round bound (counted as a bailout) *)
      let keys =
        List.sort compare
          (Hashtbl.fold (fun k _ acc -> k :: acc) w.Session.chase [])
      in
      let maintained = ref 0 and bailouts = ref 0 in
      List.iter
        (fun k ->
          let st = Hashtbl.find w.Session.chase k in
          let st', stats =
            Maintain.apply ~budget:b ~max_rounds:k w.Session.theory
              ~db:w.Session.db st ~insert ~retract
          in
          (match st'.Maintain.outcome with
          | Chase.Exhausted Budget.Rounds | Chase.Fixpoint | Chase.Watched ->
              Hashtbl.replace w.Session.chase k st'
          | Chase.Exhausted other -> raise (Budget.Exhausted other));
          incr maintained;
          if stats.Maintain.bailed_out then incr bailouts)
        keys;
      (* judge/cert verdicts are db-dependent — drop them; the rule
         slices are theory-only and stay.  The Hc eval memo keys on the
         instance version, which every mutation above bumped. *)
      Hashtbl.reset w.Session.verdicts;
      (match Session.find t.store name with
      | Some entry -> Session.log_update entry ~insert ~retract
      | None -> ());
      ( r.Protocol.op,
        [ ("session", Json.S name);
          ( (if r.Protocol.op = Protocol.Assert then "inserted"
             else "retracted"),
            int (if r.Protocol.op = Protocol.Assert then ins else rem) );
          ("db_facts", int (Instance.num_facts w.Session.db));
          ("maintained", int !maintained);
          ("bailouts", int !bailouts) ] )
  | Protocol.Judge ->
      with_session t ~fault b r @@ fun name w ->
      let qtext = require "query" r.Protocol.query in
      let fields =
        memoized w ("judge:" ^ qtext) ~session:name @@ fun () ->
        let q = Parser.parse_query qtext in
        let jb =
          { Judge.default_budget with
            pipeline_params =
              { Pipeline.default_params with budget = Some b };
          }
        in
        judge_fields
          (Judge.judge ~budget:jb ~slice:(slice_of w q) w.Session.theory
             w.Session.db q)
      in
      (Protocol.Judge, fields)
  | Protocol.Cert ->
      with_session t ~fault b r @@ fun name w ->
      let qtext = require "query" r.Protocol.query in
      let fields =
        memoized w ("cert:" ^ qtext) ~session:name @@ fun () ->
        let q = Parser.parse_query qtext in
        let params = { Pipeline.default_params with budget = Some b } in
        cert_fields
          (Pipeline.construct ~params ~slice:(slice_of w q) w.Session.theory
             w.Session.db q)
      in
      (Protocol.Cert, fields)

(* ------------------------- isolation barrier ----------------------- *)

let error_of_exn = function
  | Reply_error (code, msg, extra) -> (code, msg, extra)
  | Budget.Exhausted r ->
      ( "budget_exhausted",
        "budget exhausted: " ^ Budget.resource_name r,
        [ ("resource", Json.S (Budget.resource_name r)) ] )
  | Faults.Injected ->
      ("fault_injected", "injected fault: " ^ Faults.describe Faults.Poison, [])
  | Parser.Parse_error _ as e -> ("parse_error", Parser.error_message e, [])
  | Invalid_argument msg -> ("bad_request", "invalid input: " ^ msg, [])
  | Failure msg -> ("bad_request", msg, [])
  | Stack_overflow -> ("internal", "stack overflow", [])
  | Out_of_memory -> ("internal", "out of memory", [])
  | e -> ("internal", Printexc.to_string e, [])

(* Serve one request line.  Every exception the request provokes —
   budget exhaustion, parse errors, injected faults, engine bugs — is
   converted here into a structured error reply, the engaged session is
   evicted, and the loop lives on.  This function must never raise. *)
let handle_line t line =
  Obs.Metrics.incr m_requests;
  t.engaged <- None;
  Obs.Metrics.time t_request @@ fun () ->
  Obs.Trace.span "serve.request" @@ fun () ->
  let fault = match t.config.faults with Some f -> Faults.draw f | None -> None in
  let line = Faults.apply_truncate fault line in
  let id, outcome =
    match Protocol.parse_request line with
    | Error (id, code, msg) -> (id, Error (code, msg, []))
    | Ok r -> (
        r.Protocol.id,
        match dispatch t ~fault r with
        | op, fields -> (
            (* a faulted request never reports success, even when the
               engines degraded gracefully around the injected trap: the
               client must see the failure and retry *)
            match fault with
            | None -> Ok (op, fields)
            | Some f ->
                Error ("fault_injected", "injected fault: " ^ Faults.describe f, []))
        | exception e -> Error (error_of_exn e))
  in
  match outcome with
  | Ok (op, fields) -> Protocol.ok ~id ~op fields
  | Error (code, msg, extra) ->
      Obs.Metrics.incr m_failed;
      (match t.engaged with
      | Some name -> if Session.evict t.store name then Obs.Metrics.incr m_evicted
      | None -> ());
      Protocol.error ~id ~code ~extra msg

let overloaded_reply line =
  Obs.Metrics.incr m_requests;
  Obs.Metrics.incr m_overloaded;
  Protocol.error ~id:(Protocol.peek_id line) ~code:"overloaded"
    ~extra:[ ("retry_after_s", Json.N 0.1) ]
    "server at max in-flight requests; retry later"

let handle_burst t lines =
  List.mapi
    (fun i line ->
      if i < t.config.max_inflight then handle_line t line
      else overloaded_reply line)
    lines

(* ------------------------------ the loop --------------------------- *)

type conn = {
  in_fd : Unix.file_descr;
  out_fd : Unix.file_descr;
  rbuf : Buffer.t;
  close_fd : bool; (* accepted sockets yes, stdio no *)
  mutable discarding : bool; (* inside an oversized line *)
  mutable open_ : bool;
}

let conn_of ?(close_fd = false) in_fd out_fd =
  { in_fd; out_fd; rbuf = Buffer.create 256; close_fd; discarding = false;
    open_ = true }

let chunk = Bytes.create 8192

(* Pull whatever is available and split it into complete lines; a line
   growing past [max_line_bytes] without a newline is answered once and
   discarded to its end. *)
let read_ready t conn =
  match Unix.read conn.in_fd chunk 0 (Bytes.length chunk) with
  | exception Unix.Unix_error ((Unix.EINTR | Unix.EAGAIN | Unix.EWOULDBLOCK), _, _)
    ->
      []
  | exception Unix.Unix_error (Unix.ECONNRESET, _, _) ->
      conn.open_ <- false;
      []
  | 0 ->
      conn.open_ <- false;
      []
  | n ->
      Buffer.add_subbytes conn.rbuf chunk 0 n;
      let data = Buffer.contents conn.rbuf in
      Buffer.clear conn.rbuf;
      let items = ref [] in
      let start = ref 0 in
      String.iteri
        (fun i c ->
          if c = '\n' then begin
            (if conn.discarding then conn.discarding <- false
             else
               let len = i - !start in
               let len =
                 if len > 0 && data.[!start + len - 1] = '\r' then len - 1
                 else len
               in
               items := `Line (String.sub data !start len) :: !items);
            start := i + 1
          end)
        data;
      if not conn.discarding then
        Buffer.add_string conn.rbuf
          (String.sub data !start (String.length data - !start));
      if Buffer.length conn.rbuf > t.config.max_line_bytes then begin
        Buffer.clear conn.rbuf;
        conn.discarding <- true;
        items := `Oversized :: !items
      end;
      List.rev !items

let oversized_reply t =
  Obs.Metrics.incr m_requests;
  Obs.Metrics.incr m_failed;
  Protocol.error ~id:Json.Null ~code:"bad_request"
    (Printf.sprintf "request line exceeds %d bytes" t.config.max_line_bytes)

let write_conn conn s =
  if conn.open_ then begin
    let data = s ^ "\n" in
    let len = String.length data in
    let rec go off =
      if off < len then
        match Unix.write_substring conn.out_fd data off (len - off) with
        | n -> go (off + n)
        | exception Unix.Unix_error (Unix.EINTR, _, _) -> go off
        | exception Unix.Unix_error ((Unix.EPIPE | Unix.ECONNRESET), _, _) ->
            conn.open_ <- false
    in
    go 0
  end

(* SIGINT/SIGTERM flip the stop flag; the loop notices at its next
   wake-up, drains the burst it already read, and returns normally so
   the CLI's metrics/trace dumps run and the process exits 0. *)
let with_stop_signals t k =
  let set s =
    match Sys.signal s (Sys.Signal_handle (fun _ -> t.stop <- true)) with
    | prev -> Some (s, prev)
    | exception (Invalid_argument _ | Sys_error _) -> None
  in
  let saved = List.filter_map set [ Sys.sigint; Sys.sigterm ] in
  let pipe =
    match Sys.signal Sys.sigpipe Sys.Signal_ignore with
    | prev -> Some (Sys.sigpipe, prev)
    | exception (Invalid_argument _ | Sys_error _) -> None
  in
  let restore () =
    List.iter
      (fun (s, b) ->
        try Sys.set_signal s b with Invalid_argument _ | Sys_error _ -> ())
      (saved @ Option.to_list pipe)
  in
  Fun.protect ~finally:restore k

let accept_all listener conns =
  let rec go () =
    match Unix.accept listener with
    | fd, _ ->
        conns := conn_of ~close_fd:true fd fd :: !conns;
        go ()
    | exception
        Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINTR), _, _)
      ->
        ()
  in
  go ()

let serve_conns t ?listener conns0 =
  let conns = ref conns0 in
  let finish () =
    List.iter
      (fun c ->
        if c.close_fd then
          try Unix.close c.in_fd with Unix.Unix_error _ -> ())
      !conns
  in
  let rec go () =
    Obs.Metrics.set g_uptime
      (int_of_float (Unix.gettimeofday () -. t.started));
    conns := List.filter (fun c -> c.open_) !conns;
    if t.stop then ()
    else
      let read_fds =
        (match listener with Some l -> [ l ] | None -> [])
        @ List.map (fun c -> c.in_fd) !conns
      in
      if read_fds = [] then () (* every client is gone *)
      else
        match Unix.select read_fds [] [] 0.5 with
        | exception Unix.Unix_error (Unix.EINTR, _, _) -> go ()
        | ready, _, _ ->
            (match listener with
            | Some l when List.mem l ready -> accept_all l conns
            | _ -> ());
            let pending =
              List.concat_map
                (fun c ->
                  if List.mem c.in_fd ready then
                    List.map (fun item -> (c, item)) (read_ready t c)
                  else [])
                !conns
            in
            (* the per-wake-up admission bound: lines beyond
               max_inflight are answered overloaded, never queued *)
            let admitted = ref 0 in
            List.iter
              (fun (c, item) ->
                let reply =
                  match item with
                  | `Oversized -> oversized_reply t
                  | `Line line ->
                      incr admitted;
                      if !admitted <= t.config.max_inflight then
                        handle_line t line
                      else overloaded_reply line
                in
                write_conn c reply)
              pending;
            go ()
  in
  Fun.protect ~finally:finish go

let serve_stdio t =
  with_stop_signals t @@ fun () ->
  serve_conns t [ conn_of Unix.stdin Unix.stdout ]

let serve_socket t ~path =
  with_stop_signals t @@ fun () ->
  (try Unix.unlink path with Unix.Unix_error _ -> ());
  let listener = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.set_nonblock listener;
  Fun.protect
    ~finally:(fun () ->
      (try Unix.close listener with Unix.Unix_error _ -> ());
      try Unix.unlink path with Unix.Unix_error _ -> ())
    (fun () ->
      Unix.bind listener (Unix.ADDR_UNIX path);
      Unix.listen listener 64;
      serve_conns t ~listener [])
