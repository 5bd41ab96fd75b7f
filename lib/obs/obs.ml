(* The observability substrate: a process-wide metrics registry plus a
   span tracer, shared by every engine.

   Design constraints (see DESIGN.md, "Observability"):

   - Zero dependencies beyond the stdlib and Unix (for the clock), so
     every library in the repo can depend on it without cycles.
   - Counters are *always on*: an increment is one record mutation on a
     pre-registered handle, cheap enough for the join hot loop.  What
     [--metrics] controls is only whether the snapshot is dumped.
   - Tracing is *off by default* and O(1) when disabled: every traced
     call site goes through one function call and one branch on the
     installed sink.  Allocation-bearing work (attribute lists, probe
     deltas) must be guarded by [Trace.enabled] at the call site.
   - Instrumentation is semantically inert: nothing here feeds back into
     engine decisions, and counter values do not depend on whether a
     sink is installed.  test/test_properties.ml holds the engines to
     this with a trace-on/trace-off metamorphic property. *)

type value =
  | Int of int
  | Float of float
  | Bool of bool
  | Str of string

(* ------------------------------------------------------------------ *)
(* JSON emission and a minimal parser                                  *)
(* ------------------------------------------------------------------ *)

(* The emitter writes deterministic (name-sorted) JSON; the parser is
   just enough for the round-trip tests and for consumers of the bench
   blob — objects, arrays, strings, numbers, booleans, null. *)
module Json = struct
  type t =
    | Null
    | B of bool
    | N of float
    | S of string
    | A of t list
    | O of (string * t) list

  let buf_escape b s =
    String.iter
      (fun c ->
        match c with
        | '"' -> Buffer.add_string b "\\\""
        | '\\' -> Buffer.add_string b "\\\\"
        | '\n' -> Buffer.add_string b "\\n"
        | '\t' -> Buffer.add_string b "\\t"
        | '\r' -> Buffer.add_string b "\\r"
        | c when Char.code c < 0x20 ->
            Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
        | c -> Buffer.add_char b c)
      s

  let number_to_string f =
    if Float.is_integer f && Float.abs f < 1e15 then
      Printf.sprintf "%.0f" f
    else Printf.sprintf "%.9g" f

  let rec write b = function
    | Null -> Buffer.add_string b "null"
    | B v -> Buffer.add_string b (string_of_bool v)
    | N f -> Buffer.add_string b (number_to_string f)
    | S s ->
        Buffer.add_char b '"';
        buf_escape b s;
        Buffer.add_char b '"'
    | A l ->
        Buffer.add_char b '[';
        List.iteri
          (fun i v ->
            if i > 0 then Buffer.add_char b ',';
            write b v)
          l;
        Buffer.add_char b ']'
    | O kvs ->
        Buffer.add_char b '{';
        List.iteri
          (fun i (k, v) ->
            if i > 0 then Buffer.add_char b ',';
            Buffer.add_char b '"';
            buf_escape b k;
            Buffer.add_string b "\":";
            write b v)
          kvs;
        Buffer.add_char b '}'

  let to_string v =
    let b = Buffer.create 256 in
    write b v;
    Buffer.contents b

  exception Bad of string

  let parse s =
    let n = String.length s in
    let pos = ref 0 in
    let peek () = if !pos < n then Some s.[!pos] else None in
    let advance () = incr pos in
    let fail msg = raise (Bad (Printf.sprintf "%s at offset %d" msg !pos)) in
    let rec skip_ws () =
      match peek () with
      | Some (' ' | '\t' | '\n' | '\r') ->
          advance ();
          skip_ws ()
      | _ -> ()
    in
    let expect c =
      match peek () with
      | Some c' when c' = c -> advance ()
      | _ -> fail (Printf.sprintf "expected '%c'" c)
    in
    let literal word v =
      let l = String.length word in
      if !pos + l <= n && String.sub s !pos l = word then begin
        pos := !pos + l;
        v
      end
      else fail ("expected " ^ word)
    in
    let parse_string () =
      expect '"';
      let b = Buffer.create 16 in
      let rec go () =
        match peek () with
        | None -> fail "unterminated string"
        | Some '"' -> advance ()
        | Some '\\' -> (
            advance ();
            match peek () with
            | Some 'n' -> Buffer.add_char b '\n'; advance (); go ()
            | Some 't' -> Buffer.add_char b '\t'; advance (); go ()
            | Some 'r' -> Buffer.add_char b '\r'; advance (); go ()
            | Some 'u' ->
                advance ();
                if !pos + 4 > n then fail "bad \\u escape";
                let hex = String.sub s !pos 4 in
                pos := !pos + 4;
                (match int_of_string_opt ("0x" ^ hex) with
                | Some code when code < 128 -> Buffer.add_char b (Char.chr code)
                | Some _ -> Buffer.add_char b '?'
                | None -> fail "bad \\u escape");
                go ()
            | Some c -> Buffer.add_char b c; advance (); go ()
            | None -> fail "unterminated escape")
        | Some c -> Buffer.add_char b c; advance (); go ()
      in
      go ();
      Buffer.contents b
    in
    let parse_number () =
      let start = !pos in
      let numchar = function
        | '0' .. '9' | '-' | '+' | '.' | 'e' | 'E' -> true
        | _ -> false
      in
      while (match peek () with Some c -> numchar c | None -> false) do
        advance ()
      done;
      match float_of_string_opt (String.sub s start (!pos - start)) with
      | Some f -> N f
      | None -> fail "bad number"
    in
    let rec parse_value () =
      skip_ws ();
      match peek () with
      | Some '{' ->
          advance ();
          skip_ws ();
          if peek () = Some '}' then begin
            advance ();
            O []
          end
          else begin
            let rec members acc =
              skip_ws ();
              let k = parse_string () in
              skip_ws ();
              expect ':';
              let v = parse_value () in
              skip_ws ();
              match peek () with
              | Some ',' ->
                  advance ();
                  members ((k, v) :: acc)
              | Some '}' ->
                  advance ();
                  O (List.rev ((k, v) :: acc))
              | _ -> fail "expected ',' or '}'"
            in
            members []
          end
      | Some '[' ->
          advance ();
          skip_ws ();
          if peek () = Some ']' then begin
            advance ();
            A []
          end
          else begin
            let rec items acc =
              let v = parse_value () in
              skip_ws ();
              match peek () with
              | Some ',' ->
                  advance ();
                  items (v :: acc)
              | Some ']' ->
                  advance ();
                  A (List.rev (v :: acc))
              | _ -> fail "expected ',' or ']'"
            in
            items []
          end
      | Some '"' -> S (parse_string ())
      | Some 't' -> literal "true" (B true)
      | Some 'f' -> literal "false" (B false)
      | Some 'n' -> literal "null" Null
      | Some _ -> parse_number ()
      | None -> fail "empty input"
    in
    match parse_value () with
    | v ->
        skip_ws ();
        if !pos <> n then Error "trailing garbage" else Ok v
    | exception Bad msg -> Error msg

  let member k = function
    | O kvs -> List.assoc_opt k kvs
    | _ -> None
end

let value_to_json = function
  | Int i -> Json.N (float_of_int i)
  | Float f -> Json.N f
  | Bool b -> Json.B b
  | Str s -> Json.S s

(* ------------------------------------------------------------------ *)
(* The metrics registry                                                *)
(* ------------------------------------------------------------------ *)

module Metrics = struct
  type counter = { mutable c : int }

  type gauge = { mutable g : int }

  type timer = {
    mutable count : int;
    mutable total_s : float;
    mutable max_s : float;
  }

  type metric =
    | Counter of counter
    | Gauge of gauge
    | Timer of timer

  let registry : (string, metric) Hashtbl.t = Hashtbl.create 64

  let kind_name = function
    | Counter _ -> "counter"
    | Gauge _ -> "gauge"
    | Timer _ -> "timer"

  let register name make match_existing =
    match Hashtbl.find_opt registry name with
    | Some m -> (
        match match_existing m with
        | Some h -> h
        | None ->
            invalid_arg
              (Printf.sprintf "Obs.Metrics: %s is already a %s" name
                 (kind_name m)))
    | None ->
        let h, m = make () in
        Hashtbl.replace registry name m;
        h

  let counter name =
    register name
      (fun () ->
        let c = { c = 0 } in
        (c, Counter c))
      (function Counter c -> Some c | _ -> None)

  let gauge name =
    register name
      (fun () ->
        let g = { g = 0 } in
        (g, Gauge g))
      (function Gauge g -> Some g | _ -> None)

  let timer name =
    register name
      (fun () ->
        let t = { count = 0; total_s = 0.; max_s = 0. } in
        (t, Timer t))
      (function Timer t -> Some t | _ -> None)

  (* Counters are monotonic between resets: negative increments are a
     programming error, not a way to decrease. *)
  let incr c = c.c <- c.c + 1

  let add c n =
    if n < 0 then invalid_arg "Obs.Metrics.add: negative increment"
    else c.c <- c.c + n

  let value c = c.c
  let reset_counter c = c.c <- 0
  let set g n = g.g <- n
  let gauge_value g = g.g

  let record_s t s =
    t.count <- t.count + 1;
    t.total_s <- t.total_s +. s;
    if s > t.max_s then t.max_s <- s

  let time t f =
    let t0 = Unix.gettimeofday () in
    match f () with
    | v ->
        record_s t (Unix.gettimeofday () -. t0);
        v
    | exception e ->
        record_s t (Unix.gettimeofday () -. t0);
        raise e

  let reset () =
    Hashtbl.iter
      (fun _ m ->
        match m with
        | Counter c -> c.c <- 0
        | Gauge g -> g.g <- 0
        | Timer t ->
            t.count <- 0;
            t.total_s <- 0.;
            t.max_s <- 0.)
      registry

  (* ------------------------------ snapshots ------------------------- *)

  type sval =
    | Scounter of int
    | Sgauge of int
    | Stimer of { count : int; total_s : float; max_s : float }

  type snapshot = (string * sval) list (* sorted by name *)

  let snapshot () =
    Hashtbl.fold
      (fun name m acc ->
        let v =
          match m with
          | Counter c -> Scounter c.c
          | Gauge g -> Sgauge g.g
          | Timer t ->
              Stimer { count = t.count; total_s = t.total_s; max_s = t.max_s }
        in
        (name, v) :: acc)
      registry []
    |> List.sort (fun (a, _) (b, _) -> String.compare a b)

  let find_int (s : snapshot) name =
    match List.assoc_opt name s with
    | Some (Scounter v) | Some (Sgauge v) -> Some v
    | _ -> None

  let find_timer (s : snapshot) name =
    match List.assoc_opt name s with
    | Some (Stimer { count; total_s; _ }) -> Some (count, total_s)
    | _ -> None

  (* The deterministic part of a snapshot: counters and gauges, no
     wall-clock.  This is what the metamorphic tests compare. *)
  let ints (s : snapshot) =
    List.filter_map
      (fun (name, v) ->
        match v with
        | Scounter v | Sgauge v -> Some (name, v)
        | Stimer _ -> None)
      s

  (* Per-name difference of the deterministic parts: what happened
     between two snapshots. *)
  let ints_delta ~before ~after =
    let b = ints before in
    List.filter_map
      (fun (name, v) ->
        let v0 =
          match List.assoc_opt name b with Some v0 -> v0 | None -> 0
        in
        if v = v0 then None else Some (name, v - v0))
      (ints after)

  let to_json_value (s : snapshot) =
    let counters =
      List.filter_map
        (fun (n, v) ->
          match v with
          | Scounter v -> Some (n, Json.N (float_of_int v))
          | _ -> None)
        s
    in
    let gauges =
      List.filter_map
        (fun (n, v) ->
          match v with
          | Sgauge v -> Some (n, Json.N (float_of_int v))
          | _ -> None)
        s
    in
    let timers =
      List.filter_map
        (fun (n, v) ->
          match v with
          | Stimer { count; total_s; max_s } ->
              Some
                ( n,
                  Json.O
                    [ ("count", Json.N (float_of_int count));
                      ("total_s", Json.N total_s);
                      ("max_s", Json.N max_s);
                    ] )
          | _ -> None)
        s
    in
    Json.O
      [ ("counters", Json.O counters);
        ("gauges", Json.O gauges);
        ("timers", Json.O timers);
      ]

  let to_json s = Json.to_string (to_json_value s)

  (* The bench-trajectory shape: a flat array of named samples, the
     format of the repo's BENCH_*.json records. *)
  let to_bench_json (s : snapshot) =
    let entry n v unit =
      Json.O [ ("name", Json.S n); ("value", v); ("unit", Json.S unit) ]
    in
    Json.to_string
      (Json.A
         (List.concat_map
            (fun (n, v) ->
              match v with
              | Scounter v | Sgauge v ->
                  [ entry n (Json.N (float_of_int v)) "count" ]
              | Stimer { count; total_s; _ } ->
                  [ entry (n ^ ".total") (Json.N total_s) "s";
                    entry (n ^ ".count") (Json.N (float_of_int count)) "count";
                  ])
            s))

  let pp_text ppf (s : snapshot) =
    List.iter
      (fun (n, v) ->
        match v with
        | Scounter v -> Format.fprintf ppf "%-36s %d@." n v
        | Sgauge v -> Format.fprintf ppf "%-36s %d (gauge)@." n v
        | Stimer { count; total_s; max_s } ->
            Format.fprintf ppf "%-36s %d calls, %.6fs total, %.6fs max@." n
              count total_s max_s)
      s
end

(* ------------------------------------------------------------------ *)
(* The span tracer                                                     *)
(* ------------------------------------------------------------------ *)

module Trace = struct
  (* The sink interface: a tracer is four callbacks.  The library ships
     one implementation (the tree collector below); tests or embedders
     can install their own. *)
  type sink = {
    enter_span : string -> unit;
    exit_span : float -> unit; (* elapsed seconds of the closing span *)
    add_attr : string -> value -> unit;
    add_event : string -> (string * value) list -> unit;
  }

  let sink : sink option ref = ref None
  let set_sink s = sink := s
  let enabled () = !sink <> None

  (* The disabled path of every hook is one branch on [!sink]; callers
     building attribute lists must guard with [enabled ()] so the
     disabled path also avoids the list allocation. *)
  let span name f =
    match !sink with
    | None -> f ()
    | Some s -> (
        s.enter_span name;
        let t0 = Unix.gettimeofday () in
        match f () with
        | v ->
            s.exit_span (Unix.gettimeofday () -. t0);
            v
        | exception e ->
            s.exit_span (Unix.gettimeofday () -. t0);
            raise e)

  let attr k v =
    match !sink with None -> () | Some s -> s.add_attr k v

  let event name attrs =
    match !sink with None -> () | Some s -> s.add_event name attrs

  (* ------------------------- the tree collector --------------------- *)

  type span_node = {
    name : string;
    mutable elapsed_s : float;
    mutable attrs : (string * value) list; (* newest first *)
    mutable events : (string * (string * value) list) list; (* newest first *)
    mutable children : span_node list; (* newest first *)
  }

  type collector = { root : span_node; mutable stack : span_node list }

  let make_node name =
    { name; elapsed_s = 0.; attrs = []; events = []; children = [] }

  let collector () = { root = make_node "trace"; stack = [] }

  let top c = match c.stack with s :: _ -> s | [] -> c.root

  let sink_of_collector c =
    {
      enter_span =
        (fun name ->
          let node = make_node name in
          let parent = top c in
          parent.children <- node :: parent.children;
          c.stack <- node :: c.stack);
      exit_span =
        (fun elapsed ->
          match c.stack with
          | s :: rest ->
              s.elapsed_s <- elapsed;
              c.stack <- rest
          | [] -> () (* unbalanced exit: ignore *));
      add_attr = (fun k v -> (top c).attrs <- (k, v) :: (top c).attrs);
      add_event =
        (fun name attrs -> (top c).events <- (name, attrs) :: (top c).events);
    }

  let install_collector () =
    let c = collector () in
    set_sink (Some (sink_of_collector c));
    c

  let root c = c.root

  (* Accessors re-reverse the accumulation order so consumers see
     program order. *)
  let children s = List.rev s.children
  let attrs s = List.rev s.attrs
  let events s = List.rev s.events

  (* All events of a given name in the subtree, program order. *)
  let find_events s name =
    let out = ref [] in
    let rec go s =
      List.iter
        (fun (n, attrs) -> if n = name then out := attrs :: !out)
        (events s);
      List.iter go (children s)
    in
    go s;
    List.rev !out

  let rec span_to_json_value s =
    Json.O
      [ ("name", Json.S s.name);
        ("elapsed_s", Json.N s.elapsed_s);
        ( "attrs",
          Json.O (List.map (fun (k, v) -> (k, value_to_json v)) (attrs s)) );
        ( "events",
          Json.A
            (List.map
               (fun (n, kvs) ->
                 Json.O
                   [ ("name", Json.S n);
                     ( "attrs",
                       Json.O
                         (List.map (fun (k, v) -> (k, value_to_json v)) kvs)
                     );
                   ])
               (events s)) );
        ("children", Json.A (List.map span_to_json_value (children s)));
      ]

  let span_to_json s = Json.to_string (span_to_json_value s)
end
