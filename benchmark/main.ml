(* The bddfc benchmark: four closed-loop workloads (1 client, 1 thread,
   no think time, in-process) driven through the library's front doors —
   Pipeline.construct ([bddfc model]), Judge.judge ([bddfc judge]) and
   Server.handle_line (one [bddfc serve] request).

     main.exe --workload NAME [--seed N] [--seconds S] [--trace 0|1]
     main.exe --smoke BENCHMARK.json

   With --trace 0 the run measures the end-to-end metrics; with --trace 1
   it sends every request through the front door and then replays it
   layer by layer (Replay), reporting per-layer self times and counts.
   The last stdout line is one JSON object: correct, attempted, failed
   and metrics.  Every output is checked; any failed check makes the exit
   code 1.  README.md has the metric table and the reasons. *)

open Bddfc
module Json = Obs.Json
module Pipeline = Finitemodel.Pipeline
module Judge = Finitemodel.Judge
module Certificate = Finitemodel.Certificate
module Chase = Bddfc_chase.Chase
module Instance = Structure.Instance
module Zoo = Workload.Zoo
module Server = Serve.Server

type workload = Model_zoo | Model_tree | Judge_zoo | Serve_churn

let workloads =
  [ ("model-zoo", Model_zoo); ("model-tree", Model_tree);
    ("judge-zoo", Judge_zoo); ("serve-churn", Serve_churn) ]

(* The tail percentile of a block, fixed per workload so that it lands
   inside one stratum: model-zoo's slowest shape, model-tree's depth-22
   requests, judge-zoo's cheaper remark3 request, serve-churn's slow
   writes. *)
let tail_pct = function
  | Model_zoo | Serve_churn -> 99
  | Model_tree -> 90
  | Judge_zoo -> 75

let now = Clock.now

let cpu () =
  let t = Unix.times () in
  t.Unix.tms_utime +. t.Unix.tms_stime

let sorted l =
  let a = Array.of_list l in
  Array.sort compare a;
  a

let median l =
  let a = sorted l in
  let n = Array.length a in
  if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.

(* nearest rank *)
let percentile p l =
  let a = sorted l in
  let n = Array.length a in
  a.(max 0 (int_of_float (ceil (float_of_int (p * n) /. 100.)) - 1))

let ratio a b = if b = 0. then 0. else a /. b

(* ------------------------------ a run ------------------------------- *)

type run = {
  trace : bool;
  mutable block : (float * float) list;
      (** wall and CPU seconds of each request of the current block *)
  mutable blocks : (float * float) list list;  (** finished blocks *)
  strata : (string, float list ref) Hashtbl.t;  (** wall seconds by stratum *)
  mutable attempted : int;
  mutable failed : int;
  mutable decided : int;
  mutable elements : int;  (** countermodel elements, summed *)
  mutable models : int;
  digest : Buffer.t;  (** verdicts of the determinism window *)
  mutable in_window : bool;
  mutable window_counters : (string * int) list;
  counters : (string, int) Hashtbl.t;
      (** registry deltas around front-door calls: traced runs and the
          determinism window *)
  mutable alloc_words : float;
  mutable major_gcs : int;
  mutable replay_wall : float;
}

let new_run ~trace =
  { trace; block = []; blocks = []; strata = Hashtbl.create 8; attempted = 0; failed = 0;
    decided = 0; elements = 0; models = 0; digest = Buffer.create 4096;
    in_window = true; window_counters = []; counters = Hashtbl.create 64;
    alloc_words = 0.; major_gcs = 0; replay_wall = 0. }

let fail run fmt =
  Printf.ksprintf
    (fun msg ->
      run.failed <- run.failed + 1;
      if run.failed <= 20 then prerr_endline ("benchmark: check failed: " ^ msg))
    fmt

let counter run k = Option.value (Hashtbl.find_opt run.counters k) ~default:0

let stratum run name =
  match Hashtbl.find_opt run.strata name with
  | Some l -> l
  | None ->
      let l = ref [] in
      Hashtbl.add run.strata name l;
      l

(* Call the front door once.  Registry and GC deltas are read around it
   only in traced runs and in the determinism window, so the rest of an
   untraced run carries no bookkeeping. *)
let front_door run ~stratum:name f =
  let before =
    if run.trace || run.in_window then Some (Obs.Metrics.snapshot (), Gc.quick_stat ())
    else None
  in
  let c0 = cpu () in
  let t0 = now () in
  let r = match f () with v -> Ok v | exception e -> Error e in
  let t1 = now () in
  let c1 = cpu () in
  (match before with
  | None -> ()
  | Some (snap, g0) ->
      let g1 = Gc.quick_stat () in
      List.iter
        (fun (k, d) ->
          Hashtbl.replace run.counters k (d + counter run k))
        (Obs.Metrics.ints_delta ~before:snap ~after:(Obs.Metrics.snapshot ()));
      let words (g : Gc.stat) = g.minor_words +. g.major_words -. g.promoted_words in
      run.alloc_words <- run.alloc_words +. words g1 -. words g0;
      run.major_gcs <- run.major_gcs + g1.major_collections - g0.major_collections);
  run.attempted <- run.attempted + 1;
  run.block <- (t1 -. t0, c1 -. c0) :: run.block;
  let l = stratum run name in
  l := (t1 -. t0) :: !l;
  r

let record_verdict run s =
  if run.in_window then begin
    Buffer.add_string run.digest s;
    Buffer.add_char run.digest '\n'
  end

(* Replay one request under a root span. *)
let replayed run f =
  incr Replay.request;
  let t0 = now () in
  let v = Replay.span "request" f in
  run.replay_wall <- run.replay_wall +. (now () -. t0);
  v

(* ------------------------ model and judge requests ------------------- *)

let load text =
  let p = Logic.Parser.parse_program text in
  match p.Logic.Parser.queries with
  | [ q ] ->
      (Logic.Theory.make p.Logic.Parser.rules, Instance.of_atoms p.Logic.Parser.facts, q)
  | _ -> invalid_arg "benchmark: a request program holds exactly one query"

let model_params depth = { Pipeline.default_params with chase_depth = depth }

let expectation_name = function
  | Zoo.Query_certain -> "certain"
  | Zoo.Countermodel_exists -> "countermodel"
  | Zoo.Not_finitely_controllable -> "not FC"

(* An independent confirmation of a certain verdict: the chase of the
   original theory entails the query. *)
let certain_confirmed theory db q =
  match Chase.certain ~max_rounds:200 ~max_elements:20_000 theory db q with
  | Chase.Entailed _ -> true
  | _ -> false

(* Check one verdict against its certificate, the chase and the paper's
   expectation; true when the verdict is decided. *)
let check run (b : Inputs.batch) (theory, db, q) verdict ~countermodel =
  let open Replay in
  (match countermodel with
  | Some m
    when not
           (Certificate.is_valid
              { Certificate.theory; database = db; query = q; model = m }) ->
      fail run "%s: invalid countermodel certificate" b.Inputs.stratum
  | Some m ->
      run.elements <- run.elements + Instance.num_elements m;
      run.models <- run.models + 1
  | None -> ());
  (match (verdict, b.Inputs.expect) with
  | (Model _ | Witness _), (None | Some Zoo.Countermodel_exists)
  | (No_small_model | Open), Some Zoo.Not_finitely_controllable
  | Unknown, None ->
      ()
  | Certain _, (None | Some Zoo.Query_certain) ->
      if not (certain_confirmed theory db q) then
        fail run "%s: certain verdict not confirmed by the chase" b.Inputs.stratum
  | _, e ->
      fail run "%s: verdict %s, the paper says %s" b.Inputs.stratum (show verdict)
        (match e with Some e -> expectation_name e | None -> "-"));
  match verdict with
  | Model _ | Witness _ | Certain _ | No_small_model -> true
  | Unknown | Open -> false

(* One [bddfc model] or [bddfc judge] request: the verdict and the
   countermodel, if any. *)
let answer (b : Inputs.batch) (theory, db, q) =
  match b.Inputs.cmd with
  | Inputs.Model depth -> (
      match Pipeline.construct ~params:(model_params depth) theory db q with
      | Pipeline.Model (c, _) as o -> (Replay.of_outcome o, Some c.Certificate.model)
      | o -> (Replay.of_outcome o, None))
  | Inputs.Judge -> (
      let v = Judge.judge theory db q in
      ( Replay.of_evidence v.Judge.evidence,
        match v.Judge.evidence with
        | Judge.Witness (c, _) -> Some c.Certificate.model
        | _ -> None ))

let batch_request run (b : Inputs.batch) =
  Hom.Hc.reset ();
  let r =
    front_door run ~stratum:b.Inputs.stratum (fun () ->
        let p = load b.Inputs.text in
        (p, answer b p))
  in
  match r with
  | Error e ->
      record_verdict run "error";
      fail run "%s: %s" b.Inputs.stratum (Printexc.to_string e)
  | Ok (p, (verdict, countermodel)) ->
      record_verdict run (Replay.show verdict);
      if check run b p verdict ~countermodel then run.decided <- run.decided + 1;
      if run.trace then begin
        Hom.Hc.reset ();
        let replay =
          replayed run @@ fun () ->
          let theory, db, q = Replay.span "logic.parse" (fun () -> load b.Inputs.text) in
          match b.Inputs.cmd with
          | Inputs.Model depth -> Replay.construct ~params:(model_params depth) theory db q
          | Inputs.Judge -> Replay.judge ~budget:Judge.default_budget theory db q
        in
        if replay <> verdict then
          fail run "%s: replay gave %s, the front door %s" b.Inputs.stratum
            (Replay.show replay) (Replay.show verdict)
      end

(* ---------------------------- serve requests ------------------------- *)

let serve_rounds = Server.default_config.Server.chase_rounds

type session = {
  spec : Inputs.serve;
  server : Server.t;
  edges : (Inputs.edge, unit) Hashtbl.t;  (** the base db, as sent *)
  mutable mirror : Replay.mirror option;  (** traced runs *)
  mutable next_id : int;
}

let line s fields =
  s.next_id <- s.next_id + 1;
  Json.to_string
    (Json.O ((("id", Json.N (float_of_int s.next_id)) :: fields) @ [ ("session", Json.S "g") ]))

let query_line s a b =
  line s [ ("op", Json.S "query"); ("query", Json.S (Inputs.read_query s.spec a b)) ]

let field reply k =
  match Json.parse reply with Ok j -> Json.member k j | Error _ -> None

let ok reply = field reply "ok" = Some (Json.B true)

let int_field reply k =
  match field reply k with Some (Json.N f) -> int_of_float f | _ -> -1

let open_session spec =
  (* the hash-cons store is process-global: a new session starts it
     empty, as a fresh [bddfc serve] process does *)
  Hom.Hc.reset ();
  let s =
    { spec; server = Server.create (); edges = Hashtbl.create 256; mirror = None;
      next_id = 0 }
  in
  List.iter (fun e -> Hashtbl.replace s.edges e ()) spec.Inputs.base;
  let expect_ok l =
    let r = Server.handle_line s.server l in
    if not (ok r) then failwith ("benchmark: set-up request failed: " ^ r)
  in
  expect_ok
    (line s [ ("op", Json.S "load"); ("program", Json.S (Inputs.serve_program spec)) ]);
  (* the first query runs the cold saturation *)
  expect_ok (query_line s 0 1);
  s

(* Chase the benchmark's own copy of the database afresh; the
   server's reply to the read [a, b] must agree with it. *)
let rechase_agrees s ~a ~b ~holds ~facts =
  let edges = List.sort compare (Hashtbl.fold (fun e () acc -> e :: acc) s.edges []) in
  let db =
    Instance.of_atoms (Logic.Parser.parse_atoms (Inputs.edge_atoms s.spec.Inputs.name edges))
  in
  let r =
    Chase.run ~max_rounds:serve_rounds (Logic.Parser.parse_theory Inputs.tc_rule) db
  in
  Instance.num_facts r.Chase.instance = facts
  && Hom.Eval.holds r.Chase.instance (Logic.Parser.parse_query (Inputs.read_query s.spec a b))
     = holds

(* Returns true when this request ran the fresh-chase check. *)
let serve_request run s ~check (req : Inputs.serve_req) =
  let op, key, text =
    match req with
    | Inputs.Read (a, b) -> ("query", "query", Inputs.read_query s.spec a b)
    | Inputs.Write w ->
        ( (if w.assert_ then "assert" else "retract"),
          "facts",
          Inputs.edge_atoms s.spec.Inputs.name w.edges )
  in
  let l = line s [ ("op", Json.S op); (key, Json.S text) ] in
  let r =
    front_door run
      ~stratum:(match req with Inputs.Read _ -> "read" | Inputs.Write _ -> "write")
      (fun () -> Server.handle_line s.server l)
  in
  let reply = match r with Ok r -> r | Error e -> Printexc.to_string e in
  if not (ok reply) then begin
    record_verdict run "error";
    fail run "serve: %s -> %s" l reply;
    false
  end
  else
    match req with
    | Inputs.Read (a, b) ->
        let holds = field reply "holds" = Some (Json.B true) in
        let facts = int_field reply "facts" in
        record_verdict run (Printf.sprintf "r:%b:%d" holds facts);
        if field reply "complete" = Some (Json.B true) then run.decided <- run.decided + 1
        else fail run "serve: incomplete prefix in %s" reply;
        if check && not (rechase_agrees s ~a ~b ~holds ~facts) then
          fail run "serve: %s disagrees with a fresh chase" reply;
        Option.iter
          (fun m ->
            if replayed run (fun () -> Replay.query m l) <> (holds, facts)
            then fail run "serve: replay disagrees with %s" reply)
          s.mirror;
        check
    | Inputs.Write w ->
        List.iter
          (fun e ->
            if w.assert_ then Hashtbl.replace s.edges e () else Hashtbl.remove s.edges e)
          w.edges;
        let changed = int_field reply (if w.assert_ then "inserted" else "retracted") in
        let bailouts = int_field reply "bailouts" in
        record_verdict run (Printf.sprintf "w:%d:%d" changed bailouts);
        if changed = List.length w.edges && int_field reply "db_facts" = Hashtbl.length s.edges
        then run.decided <- run.decided + 1
        else fail run "serve: write reply %s does not match the update" reply;
        Option.iter
          (fun m ->
            let v =
              replayed run (fun () -> Replay.update m ~rounds:serve_rounds l)
            in
            if v <> (changed, bailouts > 0) then
              fail run "serve: replay disagrees with %s" reply)
          s.mirror;
        false

(* --------------------------- setup and loops -------------------------- *)

(* What one run executes: batch workloads run blocks until time is up,
   serve-churn repeats its write period. *)
type plan =
  | Blocks of { first : Inputs.batch list; next : unit -> Inputs.batch list }
  | Periods of { session : session; period : Inputs.serve_req array; check_every : int }

let take n seq = List.of_seq (Seq.take n seq)

(* Set-up: build the inputs (serve-churn: load the session and run its
   cold saturation), then serve three warm-up requests of the workload's
   light strata.  The warm-up stream is disjoint from the measured one
   and the same for every seed, so set-up does the same work whatever
   the seed.  [smoke] scales the plan down to about 20 requests: 19 light
   ones and one of [heavy]. *)
let setup w ~seed ~smoke =
  let rng = Random.State.make [| seed; 0 |] in
  let warm = Random.State.make [| 0; 1 |] in
  let batch block ~light ~heavy =
    let warmup = new_run ~trace:false in
    List.iter (batch_request warmup) (take 3 (Inputs.only block ~strata:light warm));
    if warmup.failed > 0 then failwith "benchmark: a warm-up request failed";
    if smoke then
      let first =
        take 19 (Inputs.only block ~strata:light rng)
        @ take 1 (Inputs.only block ~strata:heavy rng)
      in
      Blocks { first; next = (fun () -> []) }
    else Blocks { first = block rng; next = (fun () -> block rng) }
  in
  match w with
  | Model_zoo ->
      let all = Inputs.("random" :: zoo_fc) in
      batch Inputs.model_zoo_block ~light:all ~heavy:all
  | Model_tree -> batch Inputs.model_tree_block ~light:[ "d16" ] ~heavy:[ "d18" ]
  | Judge_zoo ->
      (* sec55 stays out of the smoke: one request costs seconds *)
      batch Inputs.judge_zoo_block ~light:[ "small" ] ~heavy:[ "remark3" ]
  | Serve_churn ->
      let s = open_session (Inputs.serve_churn rng) in
      for _ = 1 to 3 do
        let a = Random.State.int warm Inputs.nodes and b = Random.State.int warm Inputs.nodes in
        ignore (Server.handle_line s.server (query_line s a b))
      done;
      let period = s.spec.Inputs.period in
      if smoke then
        Periods { session = s; period = Array.sub period 0 40; check_every = 10 }
      else Periods { session = s; period; check_every = 200 }

(* Run whole blocks (serve-churn: whole write periods) until [seconds]
   have passed, calling [between] after each; the first block is the
   determinism window. *)
let measure run plan ~seconds ~between =
  let t0 = now () in
  let close_window () =
    run.in_window <- false;
    run.window_counters <-
      ("model_elements", run.elements)
      :: Hashtbl.fold (fun k v acc -> (k, v) :: acc) run.counters []
  in
  let repeat f =
    let block () =
      f ();
      run.blocks <- run.block :: run.blocks;
      run.block <- [];
      between ()
    in
    block ();
    close_window ();
    while now () -. t0 < seconds do
      block ()
    done
  in
  match plan with
  | Blocks { first; next } ->
      let block = ref first in
      repeat (fun () ->
          List.iter (batch_request run) !block;
          block := next ())
  | Periods { session; period; check_every } ->
      let i = ref 0 and pending = ref false in
      repeat (fun () ->
          Array.iter
            (fun req ->
              incr i;
              if !i mod check_every = 0 then pending := true;
              if serve_request run session ~check:!pending req then pending := false)
            period)

(* ------------------------------- metrics ----------------------------- *)

type metric = { name : string; unit_ : string; value : float; note : string }

let ms l = List.map (fun s -> s *. 1000.) l
let sum = List.fold_left ( +. ) 0.

(* Timings come from the best block of the run.  Every block is the same
   work, and the shared host's interference only ever adds time, so the
   best block is the closest reading of the code's own cost: on the
   reference host it cut the run-to-run spread of these metrics about in
   half against whole-run aggregates (README.md, "Steadiness"). *)
let best_block better f blocks =
  List.fold_left (fun acc b -> better acc (f b)) (f (List.hd blocks)) (List.tl blocks)

let end_to_end w run ~setups =
  let n = float_of_int run.attempted in
  let blocks = List.map (fun b -> (List.map fst b, List.map snd b)) run.blocks in
  let per_block = Printf.sprintf "best of %d blocks, n=%d" (List.length blocks) run.attempted in
  let m name unit_ value note = { name; unit_; value; note } in
  let low f = best_block Float.min f blocks in
  [ m "throughput_rps" "1/s"
      (best_block Float.max
         (fun (wall, _) -> float_of_int (List.length wall) /. sum wall)
         blocks)
      per_block;
    m "latency_p50_ms" "ms" (low (fun (wall, _) -> percentile 50 (ms wall))) per_block;
    m "latency_tail_ms" "ms"
      (low (fun (wall, _) -> percentile (tail_pct w) (ms wall)))
      (Printf.sprintf "p%d, %s" (tail_pct w) per_block);
    m "cpu_ms_per_request" "ms"
      (low (fun (_, cpu) -> 1000. *. sum cpu /. float_of_int (List.length cpu)))
      per_block;
    m "decided_ratio" "ratio" (float_of_int run.decided /. n)
      (Printf.sprintf "n=%d" run.attempted);
    m "setup_s" "s" (median setups)
      (Printf.sprintf "median of %d set-ups" (List.length setups));
    m "peak_heap_mb" "MB"
      (float_of_int ((Gc.quick_stat ()).Gc.top_heap_words * (Sys.word_size / 8)) /. 1048576.)
      "top_heap_words" ]

(* Reported for reading, not bounded: see README.md. *)
let extras w run =
  let total = sum (Hashtbl.fold (fun _ l acc -> sum !l :: acc) run.strata []) in
  let by_stratum =
    List.map
      (fun (k, l) ->
        Printf.sprintf "stratum %-14s n=%-6d p50 %10.4f ms  max %10.4f ms  %5.1f%% of time" k
          (List.length !l) (percentile 50 (ms !l)) (percentile 100 (ms !l))
          (100. *. sum !l /. total))
      (List.sort compare (Hashtbl.fold (fun k l acc -> (k, l) :: acc) run.strata []))
  in
  by_stratum
  @ (match Hashtbl.find_opt run.strata "write" with
    | Some l when w = Serve_churn ->
        let writes = ms !l and n = List.length !l in
        [ Printf.sprintf "write_p50_ms = %.4f (n=%d)" (percentile 50 writes) n;
          Printf.sprintf "write_tail_ms = %.4f (p98, n=%d)" (percentile 98 writes) n ]
    | _ -> [])
  @ [ Printf.sprintf "model_elements_mean = %.4f (n=%d)"
        (ratio (float_of_int run.elements) (float_of_int run.models))
        run.models;
      Printf.sprintf "failed_ratio = %.4f (%d of %d)"
        (ratio (float_of_int run.failed) (float_of_int run.attempted))
        run.failed run.attempted ]

let per_layer run ~span_cost =
  let n = float_of_int run.attempted in
  let per_req v = v /. n in
  let self = Replay.self in
  let count k = float_of_int (Replay.count k) in
  let mean k by = ratio (count k) (count by) in
  let m name unit_ value = { name; unit_; value; note = "" } in
  let time name span = m name "s/req" (per_req (self span)) in
  let counter k = float_of_int (counter run k) in
  let counted name k = m name "count/req" (per_req (counter k)) in
  [ time "coloring.s" "ptp.coloring";
    m "coloring.lightnesses" "count" (mean "lightnesses" "colorings");
    time "rewriting.kappa_s" "rewriting.kappa";
    counted "rewriting.steps" "rewrite.steps";
    m "rewriting.complete_ratio" "ratio" (mean "kappas_complete" "kappas");
    time "naive.search_s" "finitemodel.naive.search";
    time "naive.exhaustive_s" "finitemodel.naive.exhaustive";
    counted "naive.nodes" "naive.nodes";
    time "classes.s" "classes.recognize";
    time "chase.preflight_s" "chase.termination";
    time "chase.prefix_s" "chase.prefix";
    m "chase.prefix_elements" "count" (mean "prefix_elements" "prefixes");
    counted "chase.rounds" "chase.rounds";
    counted "chase.facts_added" "chase.facts_added";
    time "chase.saturate_s" "chase.saturate";
    time "skeleton.s" "chase.skeleton";
    m "skeleton.facts" "count" (mean "skeleton_facts" "skeletons");
    m "quotient.s" "s/req"
      (per_req (self "structure.bgraph" +. self "ptp.refine" +. self "ptp.quotient"));
    m "quotient.attempts" "count/req" (per_req (count "quotients"));
    m "quotient.success_ratio" "ratio" (mean "quotients_ok" "quotients");
    m "quotient.classes" "count" (mean "quotient_classes" "quotients");
    time "normalize.s" "finitemodel.normalize";
    time "verify.s" "finitemodel.verify";
    time "logic.parse_s" "logic.parse";
    time "maintain.apply_s" "chase.maintain";
    counted "maintain.facts_deleted" "maintain.facts_deleted";
    counted "maintain.facts_rederived" "maintain.facts_rederived";
    m "maintain.rederive_ratio" "ratio"
      (ratio (counter "maintain.facts_rederived") (counter "maintain.facts_deleted"));
    m "maintain.bailout_ratio" "ratio"
      (ratio (counter "maintain.bailouts") (counter "maintain.runs"));
    counted "hom.join_probes" "eval.join_probes";
    counted "hom.index_ops" "eval.index_ops";
    m "hom.plan_cache_hit_ratio" "ratio"
      (ratio (counter "eval.plan_cache_hits")
         (counter "eval.plan_cache_hits" +. counter "eval.plans_compiled"));
    m "hom.containment_memo_hit_ratio" "ratio"
      (ratio (counter "containment.memo_hits") (counter "containment.memo_lookups"));
    time "hom.query_eval_s" "hom.query_eval";
    time "serve.self_s" "serve.protocol";
    counted "budget.tripped" "budget.tripped_total";
    m "gc.allocated_mb" "MB/req"
      (per_req (run.alloc_words *. float_of_int (Sys.word_size / 8) /. 1048576.));
    m "gc.major_collections" "count/req" (per_req (float_of_int run.major_gcs));
    time "trace.unattributed_s" "request";
    m "trace.overhead_ratio" "ratio"
      (ratio (float_of_int !Replay.next_id *. span_cost) run.replay_wall) ]

(* The deterministic counters of the determinism window; model_elements
   is the window's countermodel element total. *)
let determinism_counters =
  [ "eval.join_probes"; "rewrite.steps"; "naive.nodes"; "chase.facts_added";
    "maintain.facts_deleted"; "maintain.facts_rederived"; "maintain.facts_inserted";
    "maintain.bailouts"; "maintain.runs"; "model_elements" ]

let determinism_report name run =
  Printf.sprintf "determinism %s: verdicts=%s %s" name
    (Digest.to_hex (Digest.string (Buffer.contents run.digest)))
    (String.concat " "
       (List.map
          (fun k ->
            Printf.sprintf "%s=%d" k
              (Option.value (List.assoc_opt k run.window_counters) ~default:0))
          determinism_counters))

(* ------------------------------ output -------------------------------- *)

let json_result run metrics =
  Printf.sprintf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}"
    (run.failed = 0) run.attempted run.failed
    (String.concat ", "
       (List.map
          (fun m ->
            Printf.sprintf "\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}" m.name m.value
              m.unit_)
          metrics))

let print_metrics ms =
  List.iter (fun m -> Printf.printf "%-32s %16.6f %-9s %s\n" m.name m.value m.unit_ m.note) ms

let print_layers run =
  Printf.printf "layer self time over %d replayed requests (%.3f s traced wall):\n"
    run.attempted run.replay_wall;
  List.iter
    (fun k ->
      let v = Replay.self k in
      Printf.printf "  %-30s %10.4f s %6.1f%%\n" k v (100. *. ratio v run.replay_wall))
    (List.sort compare (Hashtbl.fold (fun k _ acc -> k :: acc) Replay.self_s []))

(* -------------------------- running a workload ------------------------ *)

let run_workload ~name w ~seed ~seconds ~trace ~smoke =
  let timed_setup () =
    let t0 = now () in
    let plan = setup w ~seed ~smoke in
    (plan, now () -. t0)
  in
  let plan, first = timed_setup () in
  (* Set-up is repeated, its result discarded, about once a second
     between blocks.  A set-up takes milliseconds, so back-to-back
     repetitions would all read the host's state of one moment; spread
     over the run, their median is as steady as the blocks are. *)
  let setups = ref [ first ] and last = ref (now ()) in
  let between () =
    if now () -. !last >= 1. then begin
      setups := snd (timed_setup ()) :: !setups;
      last := now ()
    end
  in
  let run = new_run ~trace in
  let span_cost = if trace then Replay.per_span_cost () else 0. in
  Replay.reset ();
  (match plan with
  | Periods { session; _ } when trace ->
      session.mirror <-
        Some (Replay.mirror ~rounds:serve_rounds (Inputs.serve_program session.spec))
  | _ -> ());
  measure run plan ~seconds ~between;
  Printf.printf "workload %s seed %d trace %b: %d requests, %d failed\n" name seed trace
    run.attempted run.failed;
  let report = determinism_report name run in
  print_endline report;
  let metrics =
    if trace then begin
      print_layers run;
      if not smoke then begin
        if not (Sys.file_exists "bench-out") then Sys.mkdir "bench-out" 0o755;
        Replay.write_spans (Printf.sprintf "bench-out/spans-%s-seed%d.jsonl" name seed)
      end;
      per_layer run ~span_cost
    end
    else begin
      List.iter print_endline (extras w run);
      end_to_end w run ~setups:!setups
    end
  in
  print_metrics metrics;
  (run, metrics, report)

(* The tier-1 smoke: every workload at about 20 requests, untraced and
   then traced, with all checks; the two passes must report the same
   verdicts and deterministic counters, and the metric names must be the
   ones BENCHMARK.json declares. *)
let smoke spec_path =
  let spec =
    match Json.parse (In_channel.with_open_bin spec_path In_channel.input_all) with
    | Ok j -> j
    | Error e -> failwith (spec_path ^ ": " ^ e)
  in
  let names key =
    match Json.member key spec with
    | Some (Json.A l) ->
        List.filter_map
          (fun o -> match Json.member "name" o with Some (Json.S s) -> Some s | _ -> None)
          l
    | _ -> []
  in
  let problems = ref 0 in
  let expect what ok =
    if not ok then begin
      incr problems;
      prerr_endline ("benchmark smoke: " ^ what)
    end
  in
  expect "workload names differ from BENCHMARK.json"
    (names "workloads" = List.map fst workloads);
  List.iter
    (fun (name, w) ->
      let plain, e2e, r0 = run_workload ~name w ~seed:1 ~seconds:0. ~trace:false ~smoke:true in
      let traced, layers, r1 = run_workload ~name w ~seed:1 ~seconds:0. ~trace:true ~smoke:true in
      expect (name ^ ": failed checks") (plain.failed = 0 && traced.failed = 0);
      expect (name ^ ": untraced and traced passes differ") (r0 = r1);
      expect (name ^ ": end-to-end metrics differ from BENCHMARK.json")
        (List.map (fun m -> m.name) e2e = names "end_to_end");
      expect (name ^ ": per-layer metrics differ from BENCHMARK.json")
        (List.map (fun m -> m.name) layers = names "per_layer"))
    workloads;
  exit (if !problems = 0 then 0 else 1)

let usage () =
  prerr_endline
    "usage: main.exe --workload (model-zoo|model-tree|judge-zoo|serve-churn) [--seed N] \
     [--seconds S] [--trace 0|1]\n       main.exe --smoke BENCHMARK.json";
  exit 2

let () =
  (* pin the production configuration: the CI lanes' environment
     switches would route the front doors through the test oracles *)
  Unix.putenv "BDDFC_TEST_DOMAINS" "";
  Unix.putenv "BDDFC_TEST_HC" "";
  let rec parse acc = function
    | [] -> acc
    | k :: v :: rest when String.starts_with ~prefix:"--" k ->
        parse ((String.sub k 2 (String.length k - 2), v) :: acc) rest
    | _ -> usage ()
  in
  let opts = parse [] (List.tl (Array.to_list Sys.argv)) in
  let get k d = Option.value (List.assoc_opt k opts) ~default:d in
  let int k d = match int_of_string_opt (get k d) with Some n -> n | None -> usage () in
  (* a failed set-up request leaves nothing to measure *)
  try
  match List.assoc_opt "smoke" opts with
  | Some path -> smoke path
  | None ->
      let name = get "workload" "" in
      let w = match List.assoc_opt name workloads with Some w -> w | None -> usage () in
      let trace = match get "trace" "0" with "0" -> false | "1" -> true | _ -> usage () in
      let run, metrics, _ =
        run_workload ~name w ~seed:(int "seed" "1")
          ~seconds:(float_of_int (int "seconds" "20")) ~trace ~smoke:false
      in
      print_endline (json_result run metrics);
      exit (if run.failed = 0 then 0 else 1)
  with Failure msg ->
    prerr_endline msg;
    exit 1
