(* The serve robustness envelope under test.

   The contract: [Server.handle_line] never raises — every hostile
   request (injected budget trap, truncated or malformed line, poisoned
   session, expired deadline) yields a parseable structured error reply,
   evicts the engaged session, and the very next clean request answers
   correctly (checked against the engines called directly — the
   differential oracle).  Plus: the admission bound answers overload
   instead of queueing, and the server metrics reconcile exactly with
   the requests served. *)

open Bddfc_obs
open Bddfc_logic
open Bddfc_structure
open Bddfc_finitemodel
open Bddfc_serve
module Json = Obs.Json

let check = Alcotest.check
let tc name f = Alcotest.test_case name `Quick f

(* A terminating theory with one certain and one refutable query: the
   judge verdicts are definite, so the oracle comparison is exact. *)
let rules = "e(X,Y) -> e(Y,X)."
let facts = "e(a,b)."
let program = rules ^ " " ^ facts
let q_certain = "? e(b,a)."
let q_counter = "? e(a,a)."

let oracle qtext =
  let theory = Parser.parse_theory rules in
  let db = Instance.of_atoms (Parser.parse_atoms facts) in
  let v = Judge.judge theory db (Parser.parse_query qtext) in
  match v.Judge.evidence with
  | Judge.Certain _ -> "certain"
  | Judge.Witness _ -> "countermodel"
  | Judge.No_small_model _ -> "no_small_model"
  | Judge.Open _ -> "open"

let server ?faults ?(max_inflight = 64) () =
  let config =
    { Server.default_config with faults; max_inflight; chase_rounds = 8 }
  in
  Server.create ~config ()

let reply t line =
  match Json.parse (Server.handle_line t line) with
  | Ok j -> j
  | Error e -> Alcotest.failf "unparseable reply to %S: %s" line e

let member name j =
  match Json.member name j with
  | Some v -> v
  | None -> Alcotest.failf "reply lacks %S: %s" name (Json.to_string j)

let str = function Json.S s -> s | j -> Alcotest.failf "not a string: %s" (Json.to_string j)
let boolean = function Json.B b -> b | j -> Alcotest.failf "not a bool: %s" (Json.to_string j)
let is_ok j = boolean (member "ok" j)

let req ?id ?session ?query ?extra op =
  let field name v = Printf.sprintf "%S:%s" name v in
  let fields =
    (match id with Some i -> [ field "id" (string_of_int i) ] | None -> [])
    @ [ field "op" (Printf.sprintf "%S" op) ]
    @ (match session with Some s -> [ field "session" (Printf.sprintf "%S" s) ] | None -> [])
    @ (match query with Some q -> [ field "query" (Printf.sprintf "%S" q) ] | None -> [])
    @ Option.value extra ~default:[]
  in
  "{" ^ String.concat "," fields ^ "}"

let load_req ?(name = "s") ?(source = program) () =
  Printf.sprintf {|{"id":0,"op":"load","session":%S,"program":%S}|} name source

let load t =
  let j = reply t (load_req ()) in
  check Alcotest.bool "load ok" true (is_ok j)

(* ------------------------- protocol shape ------------------------- *)

let test_protocol_roundtrip () =
  (match Protocol.parse_request
           {|{"id":7,"op":"judge","session":"s","query":"? e(X,X).","rounds":3,"fuel":10,"deadline_s":0.5,"trap":4}|}
   with
  | Error _ -> Alcotest.fail "well-formed request rejected"
  | Ok r ->
      check Alcotest.string "op" "judge" (Protocol.op_name r.Protocol.op);
      check (Alcotest.option Alcotest.string) "session" (Some "s") r.Protocol.session;
      check (Alcotest.option Alcotest.int) "rounds" (Some 3) r.Protocol.rounds;
      check (Alcotest.option Alcotest.int) "fuel" (Some 10) r.Protocol.fuel;
      check (Alcotest.option Alcotest.int) "trap" (Some 4) r.Protocol.trap;
      check (Alcotest.option (Alcotest.float 1e-9)) "deadline" (Some 0.5)
        r.Protocol.deadline_s;
      check Alcotest.string "id echoed" "7" (Json.to_string r.Protocol.id));
  (* the reply renderers pin field order: byte-deterministic lines *)
  check Alcotest.string "ok line" {|{"id":7,"ok":true,"op":"ping"}|}
    (Protocol.ok ~id:(Json.N 7.) ~op:Protocol.Ping []);
  check Alcotest.string "error line"
    {|{"id":null,"ok":false,"error":"bad_request","message":"nope"}|}
    (Protocol.error ~id:Json.Null ~code:"bad_request" "nope")

let test_protocol_rejects () =
  let rejected line =
    match Protocol.parse_request line with
    | Ok _ -> Alcotest.failf "accepted %S" line
    | Error (_, code, _) -> check Alcotest.string "code" "bad_request" code
  in
  rejected "not json at all";
  rejected {|[1,2,3]|};
  rejected {|{"op":"frobnicate"}|};
  rejected {|{"id":1}|};
  rejected {|{"id":1,"op":"query","rounds":"three"}|};
  (* the id survives for the error reply even when the op is junk *)
  (match Protocol.parse_request {|{"id":42,"op":"frobnicate"}|} with
  | Error (id, _, _) -> check Alcotest.string "id kept" "42" (Json.to_string id)
  | Ok _ -> Alcotest.fail "junk op accepted");
  check Alcotest.string "peek_id on garbage" "null" (Json.to_string (Protocol.peek_id "garbage"));
  check Alcotest.string "peek_id on json" "9"
    (Json.to_string (Protocol.peek_id {|{"id":9,"op":"ping"}|}))

(* ------------------- the barrier, fault by fault ------------------- *)

(* For each fault shape: load clean, fault the next request, then prove
   the session answers the faulted query correctly right after. *)
let test_fault_then_correct () =
  let shapes =
    [ Faults.Trap 0; Faults.Trap 1; Faults.Trap 5; Faults.Trap 25;
      Faults.Truncate 0; Faults.Truncate 12; Faults.Truncate 40;
      Faults.Poison ]
  in
  List.iter
    (fun shape ->
      let what = Faults.describe shape in
      let t = server ~faults:(Faults.scripted [ None; Some shape; None ]) () in
      load t;
      let faulted = reply t (req ~id:1 ~session:"s" ~query:q_certain "judge") in
      check Alcotest.bool (what ^ ": faulted fails") false (is_ok faulted);
      (match member "error" faulted with
      | Json.S _ -> ()
      | j -> Alcotest.failf "%s: error code not a string: %s" what (Json.to_string j));
      let probe = reply t (req ~id:2 ~session:"s" ~query:q_certain "judge") in
      check Alcotest.bool (what ^ ": probe ok") true (is_ok probe);
      check Alcotest.string (what ^ ": probe verdict") (oracle q_certain)
        (str (member "verdict" probe)))
    shapes

(* The ISSUE's sweep: >= 40 requests against a seeded fault stream,
   interleaved with clean probes whose answers must match the oracle.
   The fault draws land on rotating ops and on literally malformed or
   pre-truncated lines; the server must survive all of it. *)
let test_seeded_sweep () =
  let n = 48 in
  let certain = oracle q_certain and counter = oracle q_counter in
  (* one scripted draw per handle_line call: even indices may fault,
     odd indices (the probes) never do *)
  let rng = Random.State.make [| 0xbdd; 0xfc |] in
  let script = ref [] in
  for i = n - 1 downto 0 do
    if i mod 2 = 1 then script := None :: !script
    else begin
      let f =
        match Random.State.int rng 6 with
        | 0 -> Some (Faults.Trap (Random.State.int rng 40))
        | 1 -> Some (Faults.Trap 0)
        | 2 -> Some (Faults.Truncate (Random.State.int rng 30))
        | 3 -> Some Faults.Poison
        | _ -> None
      in
      script := f :: !script
    end
  done;
  (* a leading None so the load itself never faults *)
  let t = server ~faults:(Faults.scripted (None :: !script)) () in
  load t;
  let failures = ref 0 in
  for i = 0 to n - 1 do
    if i mod 2 = 0 then begin
      (* a request that may draw a fault: rotate ops and line shapes *)
      let line =
        match i / 2 mod 6 with
        | 0 -> req ~id:i ~session:"s" ~query:q_certain "judge"
        | 1 -> req ~id:i ~session:"s" ~query:q_counter "cert"
        | 2 -> req ~id:i ~session:"s" ~query:q_certain "query"
        | 3 -> req ~id:i "ping"
        | 4 -> Printf.sprintf {|{"id":%d,"op":"judg|} i (* pre-truncated *)
        | _ -> "}{ not a request" (* malformed *)
      in
      let j = reply t line in
      ignore (member "id" j);
      if not (is_ok j) then begin
        incr failures;
        ignore (str (member "error" j))
      end
    end
    else begin
      (* the clean probe: alternating certain/refutable judge *)
      let q = if i mod 4 = 1 then q_certain else q_counter in
      let j = reply t (req ~id:i ~session:"s" ~query:q "judge") in
      check Alcotest.bool (Printf.sprintf "probe %d ok" i) true (is_ok j);
      check Alcotest.string (Printf.sprintf "probe %d verdict" i)
        (if i mod 4 = 1 then certain else counter)
        (str (member "verdict" j))
    end
  done;
  (* the seed must actually exercise the barrier *)
  if !failures < 5 then
    Alcotest.failf "sweep too tame: only %d faulted replies" !failures

(* Eviction is observable: a poisoned request drops the warm state and
   the next request rebuilds (cached:false twice in a row). *)
let test_eviction_rebuild () =
  let t = server ~faults:(Faults.scripted [ None; None; Some Faults.Poison; None ]) () in
  load t;
  let first = reply t (req ~id:1 ~session:"s" ~query:q_certain "judge") in
  check Alcotest.bool "first not cached" false (boolean (member "cached" first));
  let poisoned = reply t (req ~id:2 ~session:"s" ~query:q_certain "judge") in
  check Alcotest.string "poison reported" "fault_injected" (str (member "error" poisoned));
  let rebuilt = reply t (req ~id:3 ~session:"s" ~query:q_certain "judge") in
  check Alcotest.bool "rebuilt ok" true (is_ok rebuilt);
  check Alcotest.bool "memo gone with the warm state" false
    (boolean (member "cached" rebuilt))

let test_update_log_net () =
  (* the replay log keeps the net effect of the update batches: a
     rebuild after eviction reproduces the live db, and batches that
     revisit the same atoms do not grow the log *)
  let store = Session.create () in
  let entry =
    Session.load store ~name:"s" ~source:"e(X,Y) -> e(Y,X). e(a,b). e(b,c)."
  in
  let update insert retract =
    let insert = Parser.parse_atoms insert
    and retract = Parser.parse_atoms retract in
    let w = Session.warm store entry in
    ignore (Bddfc_chase.Maintain.update_db w.Session.db ~insert ~retract);
    Session.log_update entry ~insert ~retract
  in
  let churn () =
    update "e(c,d). e(d,e)." "e(a,b).";
    update "e(a,b)." "e(c,d). e(b,c).";
    update "e(b,c)." ""
  in
  let db_atoms () =
    List.sort compare
      (List.map Atom.show
         (Instance.to_atoms (Session.warm store entry).Session.db))
  in
  let log_words () = Obj.reachable_words (Obj.repr entry.Session.updates) in
  churn ();
  let words = log_words () in
  for _ = 1 to 50 do
    churn ()
  done;
  check Alcotest.int "log bounded by the atoms it mentions" words
    (log_words ());
  let live = db_atoms () in
  check Alcotest.(list string) "live db" [ "e(a,b)"; "e(b,c)"; "e(d,e)" ] live;
  check Alcotest.bool "evicted" true (Session.evict store "s");
  check Alcotest.(list string) "rebuild reproduces the db" live (db_atoms ())

let test_deadline_and_trap () =
  let t = server () in
  load t;
  (* an already-expired per-request deadline trips at admission *)
  let late =
    reply t
      (req ~id:1 ~session:"s" ~query:q_certain
         ~extra:[ {|"deadline_s":-1.0|} ] "judge")
  in
  check Alcotest.string "deadline code" "budget_exhausted" (str (member "error" late));
  check Alcotest.string "deadline resource" "deadline" (str (member "resource" late));
  (* the explicit trap knob is the CLI's --fuel-trap, request-scoped *)
  let trapped =
    reply t (req ~id:2 ~session:"s" ~query:q_certain ~extra:[ {|"trap":0|} ] "judge")
  in
  check Alcotest.string "trap code" "budget_exhausted" (str (member "error" trapped));
  (* and the session still answers *)
  let after = reply t (req ~id:3 ~session:"s" ~query:q_certain "judge") in
  check Alcotest.string "after verdict" (oracle q_certain) (str (member "verdict" after))

let test_overload_bound () =
  let t = server ~max_inflight:2 () in
  let lines = List.init 5 (fun i -> req ~id:i "ping") in
  let replies = List.map (fun l -> match Json.parse l with Ok j -> j | Error e -> Alcotest.failf "bad reply: %s" e) (Server.handle_burst t lines) in
  check Alcotest.int "all answered" 5 (List.length replies);
  let ok, over = List.partition is_ok replies in
  check Alcotest.int "admitted" 2 (List.length ok);
  check Alcotest.int "shed" 3 (List.length over);
  List.iter
    (fun j ->
      check Alcotest.string "overloaded code" "overloaded" (str (member "error" j));
      match member "retry_after_s" j with
      | Json.N s -> check Alcotest.bool "positive hint" true (s > 0.)
      | _ -> Alcotest.fail "no retry_after_s hint")
    over;
  (* ids of shed requests are still echoed *)
  match over with
  | j :: _ -> (
      match member "id" j with
      | Json.N _ -> ()
      | x -> Alcotest.failf "shed id: %s" (Json.to_string x))
  | [] -> ()

(* server.* counters reconcile exactly with the script just served *)
let test_metrics_reconcile () =
  let t = server ~max_inflight:2 ~faults:(Faults.scripted [ None; Some Faults.Poison; None ]) () in
  let before = Obs.Metrics.snapshot () in
  load t; (* ok *)
  ignore (Server.handle_line t (req ~id:1 ~session:"s" ~query:q_certain "judge")); (* poisoned: fail + evict *)
  ignore (Server.handle_line t "garbage"); (* fail, no session engaged *)
  ignore (Server.handle_burst t (List.init 4 (fun i -> req ~id:(10 + i) "ping"))); (* 2 ok, 2 overloaded *)
  let after = Obs.Metrics.snapshot () in
  let delta = Obs.Metrics.ints_delta ~before ~after in
  let d name = Option.value ~default:0 (List.assoc_opt name delta) in
  check Alcotest.int "requests_total" 7 (d "server.requests_total");
  check Alcotest.int "requests_failed" 2 (d "server.requests_failed");
  check Alcotest.int "overloaded_total" 2 (d "server.overloaded_total");
  check Alcotest.int "sessions_evicted" 1 (d "server.sessions_evicted")

let test_shutdown_drains () =
  let t = server () in
  check Alcotest.bool "serving" false (Server.stopping t);
  let j = reply t (req ~id:1 "shutdown") in
  check Alcotest.bool "shutdown ok" true (is_ok j);
  check Alcotest.bool "draining flagged" true (boolean (member "draining" j));
  check Alcotest.bool "stopping" true (Server.stopping t);
  (* requests already read keep being served: the drain *)
  check Alcotest.bool "drained request still answered" true
    (is_ok (reply t (req ~id:2 "ping")))

(* A judge miss on a properly sliceable session computes the query's
   slice once: serve memoizes it and hands it to the pipeline, which
   does not slice again.  A cert of the same query then reuses the
   memo.  Both answer what the engines say directly. *)
let test_judge_slices_once () =
  let source =
    {| e(X,Y) -> exists Z. e(Y,Z).
       e(X,Y), e(Y,Z) -> p(X,Z).
       f(U,V), f(V,W) -> f(U,W).
       e(a,b). f(a,b). f(b,c). |}
  in
  let query = "? p(X,Z)." in
  let t = server () in
  check Alcotest.bool "load ok" true
    (is_ok (reply t (load_req ~name:"sl" ~source ())));
  let slices = Obs.Metrics.counter "analysis.slices" in
  let hits = Obs.Metrics.counter "analysis.slice_hits" in
  let before = Obs.Metrics.value slices in
  let j = reply t (req ~id:1 ~session:"sl" ~query "judge") in
  check Alcotest.int "one judge miss, one slice" 1
    (Obs.Metrics.value slices - before);
  check Alcotest.string "judge verdict" "certain" (str (member "verdict" j));
  let theory = Parser.parse_theory source in
  let db = Instance.of_atoms (Parser.parse_atoms "e(a,b). f(a,b). f(b,c).") in
  let depth =
    match (Judge.judge theory db (Parser.parse_query query)).Judge.evidence with
    | Judge.Certain d -> d
    | _ -> Alcotest.fail "the query is certain"
  in
  check Alcotest.string "judge depth" (string_of_int depth)
    (Json.to_string (member "depth" j));
  let before = Obs.Metrics.value slices and hits0 = Obs.Metrics.value hits in
  let j = reply t (req ~id:2 ~session:"sl" ~query "cert") in
  check Alcotest.bool "cert ok" true (is_ok j);
  check Alcotest.int "cert reuses the slice" 0
    (Obs.Metrics.value slices - before);
  check Alcotest.int "one memo hit" 1 (Obs.Metrics.value hits - hits0)

(* Rule names come from the program alone: a session loaded after
   others, in a process that has parsed other programs, still names its
   rules r1..rn by position. *)
let test_rule_names_per_program () =
  let store = Session.create () in
  let names name source =
    let e = Session.load store ~name ~source in
    List.map Rule.name (Theory.rules (Session.warm store e).Session.theory)
  in
  let first = names "a" "e(X,Y) -> exists Z. e(Y,Z). e(a,b)." in
  let second = names "b" "p(X) -> q(X). q(X) -> r(X). p(a)." in
  let third = names "c" "e(X,Y) -> exists Z. e(Y,Z). e(a,b)." in
  check Alcotest.(list string) "first load" [ "r1" ] first;
  check Alcotest.(list string) "second load" [ "r1"; "r2" ] second;
  check Alcotest.(list string) "third load" [ "r1" ] third

let suite =
  ( "serve",
    [ tc "protocol round-trip and fixed field order" test_protocol_roundtrip;
      tc "protocol rejects malformed requests" test_protocol_rejects;
      tc "every fault shape: error reply then correct answer" test_fault_then_correct;
      tc "seeded 48-request fault sweep with oracle probes" test_seeded_sweep;
      tc "poisoned session evicts and rebuilds" test_eviction_rebuild;
      tc "update log keeps the net effect" test_update_log_net;
      tc "expired deadline and fuel trap are contained" test_deadline_and_trap;
      tc "overload sheds beyond max_inflight with retry hint" test_overload_bound;
      tc "server metrics reconcile with the script" test_metrics_reconcile;
      tc "shutdown drains and stops" test_shutdown_drains;
      tc "a judge miss slices once" test_judge_slices_once;
      tc "each load numbers its rules from r1" test_rule_names_per_program ] )
