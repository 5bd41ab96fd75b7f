(* The bddfc command-line tool.

     bddfc chase FILE       run the chase on a program file
     bddfc rewrite FILE     compute UCQ rewritings of the file's queries
     bddfc classify FILE    print the class report of the file's theory
     bddfc lint FILE        static analysis: located diagnostics with witnesses
     bddfc model FILE       run the Theorem 2 pipeline on the file
     bddfc zoo [NAME]       list the paper's examples / run one
     bddfc serve            long-lived server: newline-delimited JSON
                            requests over stdio or a Unix-domain socket

   A program file contains rules, ground facts and queries in the surface
   syntax, e.g.

     e(X,Y) -> exists Z. e(Y,Z).
     e(a,b).
     ? u(X,Y).

   Exit codes (scripting contract):

     0  success — a countermodel was found / the command completed
     2  input error — unreadable or malformed program file
     3  the query is entailed (certain): no countermodel exists
     4  unknown — budgets exhausted before a conclusion

   Every command accepts --timeout/--fuel: one governor is threaded
   through all engines, and exhaustion degrades to the "unknown" exit
   code rather than hanging or crashing.  --fuel-trap injects a
   deterministic forced exhaustion after N budget charges (testing).

   Every command also accepts --metrics[=json|text] / --metrics-out FILE
   (dump the process-wide metrics registry on exit) and --trace FILE
   (enable span tracing, write the JSON span tree on exit).  The dumps
   never change a command's output on stdout or its exit code. *)

open Bddfc
open Cmdliner

let exit_ok = Cmd.Exit.ok (* 0 *)
let exit_input_error = 2
let exit_entailed = 3
let exit_unknown = 4

let exits =
  Cmd.Exit.info exit_input_error
    ~doc:"on bad input: an unreadable or malformed file, or a command-line \
          usage error."
  :: Cmd.Exit.info exit_entailed
       ~doc:"when the query is certain: no countermodel exists."
  :: Cmd.Exit.info exit_unknown
       ~doc:"when budgets were exhausted before a conclusion."
  :: Cmd.Exit.info 130 ~doc:"on SIGINT (after the observability dumps run)."
  :: Cmd.Exit.info 143 ~doc:"on SIGTERM (after the observability dumps run)."
  :: Cmd.Exit.defaults

let read_file path =
  let ic = open_in_bin path in
  let n = in_channel_length ic in
  let s = really_input_string ic n in
  close_in ic;
  s

let load path =
  let src = read_file path in
  let p = Logic.Parser.parse_program src in
  let theory = Logic.Theory.make p.Logic.Parser.rules in
  let db = Structure.Instance.of_atoms p.Logic.Parser.facts in
  (theory, db, p.Logic.Parser.queries, p)

(* Run [k] on the loaded program, turning parse errors and malformed
   input into a one-line diagnostic plus the input-error exit code —
   never a backtrace. *)
let with_program path k =
  match load path with
  | exception Logic.Parser.Parse_error { loc; msg } ->
      (match loc with
      | Some l ->
          Fmt.epr "%a: parse error: %s@." (Logic.Loc.pp_in_file path) l msg
      | None -> Fmt.epr "bddfc: %s: parse error: %s@." path msg);
      exit_input_error
  | exception Sys_error msg ->
      Fmt.epr "bddfc: %s@." msg;
      exit_input_error
  | exception Invalid_argument msg ->
      Fmt.epr "bddfc: %s: invalid input: %s@." path msg;
      exit_input_error
  | program -> (
      match k program with
      | code -> code
      | exception Invalid_argument msg ->
          Fmt.epr "bddfc: %s: invalid input: %s@." path msg;
          exit_input_error
      | exception Failure msg ->
          Fmt.epr "bddfc: %s: %s@." path msg;
          exit_input_error)

let setup_logs verbose =
  Logs.set_reporter (Logs_fmt.reporter ());
  Logs.set_level (if verbose then Some Logs.Debug else Some Logs.Warning)

let file_arg =
  Arg.(required & pos 0 (some file) None & info [] ~docv:"FILE"
         ~doc:"Program file (rules, facts, queries).")

let verbose_arg =
  Arg.(value & flag & info [ "v"; "verbose" ] ~doc:"Enable debug logging.")

(* One governor for the whole invocation: a wall-clock deadline plus a
   uniform fuel allowance across every counter the engines charge. *)
let budget_term =
  let timeout =
    Arg.(value & opt (some float) None
         & info [ "timeout" ] ~docv:"SECONDS"
             ~doc:"Wall-clock deadline for the whole run; on expiry the \
                   engines stop cooperatively and the result is reported \
                   as unknown.")
  in
  let fuel =
    Arg.(value & opt (some int) None
         & info [ "fuel" ] ~docv:"N"
             ~doc:"Uniform fuel for every engine counter (chase rounds, \
                   fresh elements, derived facts, rewrite steps, \
                   refinement steps, search nodes).")
  in
  let trap =
    Arg.(value & opt (some int) None
         & info [ "fuel-trap" ] ~docv:"N"
             ~doc:"Fault injection: force budget exhaustion after $(docv) \
                   charge points (for testing graceful degradation).")
  in
  let make timeout fuel trap =
    match (timeout, fuel, trap) with
    | None, None, None -> None
    | _ ->
        let b =
          Budget.v ?deadline_s:timeout ?rounds:fuel ?elements:fuel ?facts:fuel
            ?rewrite_steps:fuel ?refine_steps:fuel ?nodes:fuel ()
        in
        Some
          (match trap with
          | None -> b
          | Some n -> Budget.with_fuel_trap ~after:n b)
  in
  Term.(const make $ timeout $ fuel $ trap)

(* -------------------------- observability ------------------------- *)

(* Every subcommand accepts --metrics[=FORMAT], --metrics-out FILE and
   --trace FILE; [with_obs] wraps the command body so the dumps happen
   after it returns (or raises) and include everything the run charged.
   Dump I/O failures warn on stderr without disturbing the command's
   exit code — observability never changes the scripting contract. *)
type obs_opts = {
  metrics : [ `Json | `Text ] option;
  metrics_out : string option;
  trace_out : string option;
}

let obs_term =
  let metrics =
    Arg.(
      value
      & opt
          ~vopt:(Some `Text)
          (some (enum [ ("text", `Text); ("json", `Json) ]))
          None
      & info [ "metrics" ] ~docv:"FORMAT"
          ~doc:"Dump a metrics-registry snapshot on exit: $(b,text) (the \
                default when the flag is given bare) or $(b,json).  The \
                snapshot goes to stderr unless $(b,--metrics-out) gives a \
                file.")
  in
  let metrics_out =
    Arg.(
      value & opt (some string) None
      & info [ "metrics-out" ] ~docv:"FILE"
          ~doc:"Write the metrics snapshot to $(docv) instead of stderr \
                (implies $(b,--metrics); JSON unless --metrics says \
                otherwise).")
  in
  let trace_out =
    Arg.(
      value & opt (some string) None
      & info [ "trace" ] ~docv:"FILE"
          ~doc:"Enable span tracing and write the JSON span tree to \
                $(docv) on exit.  Tracing is off (and costs one branch \
                per instrumentation point) without this flag.")
  in
  let make metrics metrics_out trace_out = { metrics; metrics_out; trace_out } in
  Term.(const make $ metrics $ metrics_out $ trace_out)

let wall_timer = Obs.Metrics.timer "cli.wall"

(* Batch commands convert SIGINT/SIGTERM into an exception so the
   [with_obs] dump still runs and the process exits with the
   conventional 128+signal code instead of dying dump-less.  The serve
   loop installs its own flag-based handlers on top of these (and
   restores them) so an interrupted server drains and exits 0. *)
exception Interrupted of int

let install_interrupt_handlers () =
  List.filter_map
    (fun (s, code) ->
      match
        Sys.signal s (Sys.Signal_handle (fun _ -> raise (Interrupted code)))
      with
      | prev -> Some (s, prev)
      | exception (Invalid_argument _ | Sys_error _) -> None)
    [ (Sys.sigint, 130); (Sys.sigterm, 143) ]

let restore_interrupt_handlers saved =
  List.iter
    (fun (s, prev) ->
      try Sys.set_signal s prev with Invalid_argument _ | Sys_error _ -> ())
    saved

let write_file_warn ~flag path s =
  try
    let oc = open_out path in
    output_string oc s;
    output_char oc '\n';
    close_out oc
  with Sys_error msg -> Fmt.epr "bddfc: %s: %s@." flag msg

let with_obs ~cmd obs k =
  let saved_handlers = install_interrupt_handlers () in
  let collector =
    match obs.trace_out with
    | None -> None
    | Some _ -> Some (Obs.Trace.install_collector ())
  in
  let dump () =
    restore_interrupt_handlers saved_handlers;
    Obs.Trace.set_sink None;
    (match (obs.trace_out, collector) with
    | Some path, Some c ->
        write_file_warn ~flag:"--trace" path
          (Obs.Trace.span_to_json (Obs.Trace.root c))
    | _ -> ());
    let format =
      match (obs.metrics, obs.metrics_out) with
      | Some f, _ -> Some f
      | None, Some _ -> Some `Json
      | None, None -> None
    in
    match format with
    | None -> ()
    | Some f ->
        let snap = Obs.Metrics.snapshot () in
        let body =
          match f with
          | `Json -> Obs.Metrics.to_json snap
          | `Text -> Fmt.str "%a" Obs.Metrics.pp_text snap
        in
        (match obs.metrics_out with
        | None -> Fmt.epr "%s@." body
        | Some path -> write_file_warn ~flag:"--metrics-out" path body)
  in
  Fun.protect ~finally:dump @@ fun () ->
  Obs.Metrics.time wall_timer @@ fun () ->
  Obs.Trace.span ("cli." ^ cmd) @@ fun () ->
  try k ()
  with Interrupted code ->
    Fmt.epr "bddfc: interrupted@.";
    code

(* ----------------------------- chase ----------------------------- *)

let chase_cmd =
  let rounds =
    Arg.(value & opt int 16 & info [ "rounds" ] ~doc:"Maximum chase rounds.")
  in
  let variant =
    Arg.(
      value
      & opt (enum [ ("restricted", Chase.Chase.Restricted);
                    ("oblivious", Chase.Chase.Oblivious) ])
          Chase.Chase.Restricted
      & info [ "variant" ] ~doc:"Chase variant: restricted or oblivious.")
  in
  let run file rounds variant budget obs verbose =
    setup_logs verbose;
    with_obs ~cmd:"chase" obs @@ fun () ->
    with_program file @@ fun (theory, db, queries, _) ->
    let r =
      Chase.Chase.run ~variant ?budget ~max_rounds:rounds theory db
    in
    Fmt.pr "%a@." Structure.Instance.pp r.Chase.Chase.instance;
    Fmt.pr "-- rounds: %d, elements: %d, facts: %d, %a@."
      r.Chase.Chase.rounds
      (Structure.Instance.num_elements r.Chase.Chase.instance)
      (Structure.Instance.num_facts r.Chase.Chase.instance)
      Chase.Chase.pp_outcome r.Chase.Chase.outcome;
    List.iter
      (fun q ->
        Fmt.pr "-- %a : %b@." Logic.Cq.pp q
          (Hom.Eval.holds r.Chase.Chase.instance q))
      queries;
    match r.Chase.Chase.outcome with
    | Chase.Chase.Exhausted _ -> exit_unknown
    | Chase.Chase.Fixpoint | Chase.Chase.Watched -> exit_ok
  in
  Cmd.v (Cmd.info "chase" ~doc:"Run the chase on a program file." ~exits)
    Term.(
      const run $ file_arg $ rounds $ variant $ budget_term $ obs_term
      $ verbose_arg)

(* ---------------------------- rewrite ---------------------------- *)

let rewrite_cmd =
  let max_disjuncts =
    Arg.(value & opt int 200 & info [ "max-disjuncts" ] ~doc:"Disjunct budget.")
  in
  let run file max_disjuncts budget obs verbose =
    setup_logs verbose;
    with_obs ~cmd:"rewrite" obs @@ fun () ->
    with_program file @@ fun (theory, _, queries, _) ->
    if queries = [] then Fmt.epr "no queries in %s@." file;
    let all_complete = ref true in
    List.iter
      (fun q ->
        let r =
          Rewriting.Rewrite.rewrite ?budget ~max_disjuncts theory q
        in
        if not r.Rewriting.Rewrite.complete then all_complete := false;
        Fmt.pr "@[<v>query: %a@,complete (BDD for this query): %b@,%a@,@]"
          Logic.Cq.pp q r.Rewriting.Rewrite.complete
          Fmt.(list ~sep:cut (fun ppf d -> Fmt.pf ppf "  | %a" Logic.Cq.pp d))
          r.Rewriting.Rewrite.ucq)
      queries;
    if !all_complete then exit_ok else exit_unknown
  in
  Cmd.v
    (Cmd.info "rewrite" ~doc:"Compute positive first-order (UCQ) rewritings."
       ~exits)
    Term.(
      const run $ file_arg $ max_disjuncts $ budget_term $ obs_term
      $ verbose_arg)

(* ---------------------------- classify --------------------------- *)

let classify_cmd =
  let run file budget obs verbose =
    setup_logs verbose;
    with_obs ~cmd:"classify" obs @@ fun () ->
    with_program file @@ fun (theory, _, _, _) ->
    Fmt.pr "%a@." Classes.Recognize.pp_report (Classes.Recognize.report theory);
    let k =
      Rewriting.Rewrite.kappa ?budget ~max_disjuncts:100 ~max_steps:2000
        theory
    in
    Fmt.pr "kappa: %d (rewritings complete: %b)@." k.Rewriting.Rewrite.kappa
      k.Rewriting.Rewrite.all_complete;
    exit_ok
  in
  Cmd.v (Cmd.info "classify" ~doc:"Print the class report of a theory." ~exits)
    Term.(
      const run $ file_arg $ budget_term $ obs_term $ verbose_arg)

(* ------------------------------ lint ------------------------------ *)

let lint_cmd =
  let format =
    Arg.(
      value
      & opt (enum [ ("text", `Text); ("json", `Json) ]) `Text
      & info [ "format" ] ~docv:"FORMAT"
          ~doc:"Output format: $(b,text) (FILE:LINE:COL: severity[code]: \
                message; witness) or $(b,json) (an array of diagnostic \
                objects).")
  in
  let deny =
    Arg.(
      value & flag
      & info [ "deny-warnings" ]
          ~doc:"Treat warnings as fatal: exit with the input-error code \
                when any warning (or error) is reported.  Info-level \
                class-membership diagnostics never fail the lint.")
  in
  let run file format deny obs verbose =
    setup_logs verbose;
    with_obs ~cmd:"lint" obs @@ fun () ->
    with_program file @@ fun (_, _, _, program) ->
    let diags = Analysis.Analyzer.analyze_program program in
    let counts = Analysis.Diagnostic.count diags in
    (match format with
    | `Text ->
        List.iter
          (fun d -> Fmt.pr "%a@." (Analysis.Diagnostic.pp_text ~file) d)
          diags;
        Fmt.pr "%s: %a@." file Analysis.Diagnostic.pp_counts counts
    | `Json -> Fmt.pr "%a@." (Analysis.Diagnostic.pp_json_list ~file) diags);
    if
      counts.Analysis.Diagnostic.errors > 0
      || (deny && counts.Analysis.Diagnostic.warnings > 0)
    then exit_input_error
    else exit_ok
  in
  Cmd.v
    (Cmd.info "lint"
       ~doc:
         "Static analysis of a program file: located diagnostics, each \
          carrying a concrete witness (offending atom, dependency cycle, \
          sticky-marking trace)."
       ~exits)
    Term.(
      const run $ file_arg $ format $ deny $ obs_term $ verbose_arg)

(* ----------------------------- analyze --------------------------- *)

let analyze_cmd =
  let format =
    Arg.(
      value
      & opt (enum [ ("text", `Text); ("json", `Json); ("dot", `Dot) ]) `Text
      & info [ "format" ] ~docv:"FORMAT"
          ~doc:"Output format: $(b,text) (sectioned report), $(b,json) \
                (one machine-readable object) or $(b,dot) (the predicate \
                dependency graph for graphviz).")
  in
  let run file format obs verbose =
    setup_logs verbose;
    with_obs ~cmd:"analyze" obs @@ fun () ->
    with_program file @@ fun (theory, _db, queries, program) ->
    let facts =
      List.fold_left
        (fun acc a -> Logic.Pred.Set.add (Logic.Atom.pred a) acc)
        Logic.Pred.Set.empty program.Logic.Parser.facts
    in
    let r = Analysis.Dataflow.report ~facts ~queries theory in
    (match format with
    | `Text -> Fmt.pr "%a@?" Analysis.Dataflow.pp_report r
    | `Json ->
        Fmt.pr "%s@." (Obs.Json.to_string (Analysis.Dataflow.report_json r))
    | `Dot -> Fmt.pr "%s@?" (Analysis.Dataflow.report_dot r));
    exit_ok
  in
  Cmd.v
    (Cmd.info "analyze"
       ~doc:
         "Whole-theory position dataflow: the predicate dependency graph \
          with position-level edges, the null-flow graph (which positions \
          can receive labelled nulls), EDB-reachability, rule liveness and \
          a per-query rule slice."
       ~exits)
    Term.(const run $ file_arg $ format $ obs_term $ verbose_arg)

(* ----------------------------- model ----------------------------- *)

let model_cmd =
  let depth =
    Arg.(value & opt int 24 & info [ "depth" ] ~doc:"Chase prefix depth.")
  in
  let run file depth budget obs verbose =
    setup_logs verbose;
    with_obs ~cmd:"model" obs @@ fun () ->
    with_program file @@ fun (theory, db, queries, _) ->
    match queries with
    | [] ->
        Fmt.epr "bddfc: %s: the model command needs a query@." file;
        exit_input_error
    | q :: _ -> (
        let params =
          { Finitemodel.Pipeline.default_params with chase_depth = depth; budget }
        in
        match Finitemodel.Pipeline.construct ~params theory db q with
        | Finitemodel.Pipeline.Model (cert, stats) ->
            Fmt.pr "finite countermodel found (n=%s, kappa=%d, m=%d):@."
              (match stats.Finitemodel.Pipeline.n_used with
              | Some n -> string_of_int n
              | None -> "?")
              stats.Finitemodel.Pipeline.kappa
              stats.Finitemodel.Pipeline.m_used;
            Fmt.pr "%a@." Structure.Instance.pp cert.Finitemodel.Certificate.model;
            Fmt.pr "-- verified: %b@."
              (Finitemodel.Certificate.is_valid cert);
            exit_ok
        | Finitemodel.Pipeline.Query_entailed d ->
            Fmt.pr "the query is certain (chase depth %d): no countermodel exists@." d;
            exit_entailed
        | Finitemodel.Pipeline.Unknown (why, stats) ->
            (match stats.Finitemodel.Pipeline.tripped with
            | Some r ->
                Fmt.pr "unknown: %s [budget: %s]@." why (Budget.resource_name r)
            | None -> Fmt.pr "unknown: %s@." why);
            exit_unknown)
  in
  Cmd.v
    (Cmd.info "model"
       ~doc:
         "Run the Theorem 2 pipeline: find a finite model of the facts and \
          rules avoiding the query."
       ~exits)
    Term.(
      const run $ file_arg $ depth $ budget_term $ obs_term $ verbose_arg)

(* ----------------------------- judge ----------------------------- *)

let judge_cmd =
  let run file budget obs verbose =
    setup_logs verbose;
    with_obs ~cmd:"judge" obs @@ fun () ->
    with_program file @@ fun (theory, db, queries, _) ->
    match queries with
    | [] ->
        Fmt.epr "bddfc: %s: the judge command needs a query@." file;
        exit_input_error
    | q :: _ ->
        let jb =
          { Finitemodel.Judge.default_budget with
            pipeline_params =
              { Finitemodel.Pipeline.default_params with budget };
          }
        in
        let v = Finitemodel.Judge.judge ~budget:jb theory db q in
        Fmt.pr "%a@." Finitemodel.Judge.pp v;
        (match v.Finitemodel.Judge.evidence with
        | Finitemodel.Judge.Witness (cert, _) ->
            Fmt.pr "@.model:@.%a@." Structure.Instance.pp
              cert.Finitemodel.Certificate.model;
            exit_ok
        | Finitemodel.Judge.Certain _ -> exit_entailed
        | Finitemodel.Judge.No_small_model _ | Finitemodel.Judge.Open _ ->
            exit_unknown)
  in
  Cmd.v
    (Cmd.info "judge"
       ~doc:
         "Everything the library can say about finite controllability of \
          the file's (rules, facts, query) triple."
       ~exits)
    Term.(
      const run $ file_arg $ budget_term $ obs_term $ verbose_arg)

(* ------------------------------ dot ------------------------------ *)

let dot_cmd =
  let out =
    Arg.(value & opt (some string) None & info [ "o"; "output" ]
           ~doc:"Write the DOT graph to this file (default stdout).")
  in
  let rounds =
    Arg.(value & opt int 8 & info [ "rounds" ] ~doc:"Chase rounds before export.")
  in
  let run file out rounds budget obs verbose =
    setup_logs verbose;
    with_obs ~cmd:"dot" obs @@ fun () ->
    with_program file @@ fun (theory, db, _, _) ->
    let r =
      Chase.Chase.run ?budget ~max_rounds:rounds theory db
    in
    let dot = Structure.Dot.to_string r.Chase.Chase.instance in
    (match out with
    | None -> print_string dot
    | Some path ->
        Structure.Dot.to_file path r.Chase.Chase.instance;
        Fmt.pr "wrote %s@." path);
    exit_ok
  in
  Cmd.v
    (Cmd.info "dot" ~doc:"Chase the program and export the result as GraphViz."
       ~exits)
    Term.(
      const run $ file_arg $ out $ rounds $ budget_term $ obs_term
      $ verbose_arg)

(* ------------------------------ zoo ------------------------------ *)

let zoo_cmd =
  let entry_name =
    Arg.(value & pos 0 (some string) None & info [] ~docv:"NAME"
           ~doc:"Zoo entry to run (omit to list).")
  in
  let dump =
    Arg.(value & flag & info [ "dump" ]
           ~doc:"Print the entry as a parseable program and exit; feed the \
                 result back through $(b,bddfc lint) or $(b,bddfc model).")
  in
  let run name dump budget obs verbose =
    setup_logs verbose;
    with_obs ~cmd:"zoo" obs @@ fun () ->
    match name with
    | None ->
        List.iter
          (fun (e : Workload.Zoo.entry) ->
            Fmt.pr "%-16s %-14s %a@." e.Workload.Zoo.name e.Workload.Zoo.reference
              Logic.Cq.pp e.Workload.Zoo.query)
          Workload.Zoo.all;
        exit_ok
    | Some n -> (
        match Workload.Zoo.find n with
        | None ->
            Fmt.epr "bddfc: unknown zoo entry %s@." n;
            exit_input_error
        | Some e when dump ->
            List.iter
              (fun r -> Fmt.pr "%a.@." Logic.Rule.pp r)
              (Logic.Theory.rules e.Workload.Zoo.theory);
            List.iter
              (fun a -> Fmt.pr "%a.@." Logic.Atom.pp a)
              e.Workload.Zoo.database;
            Fmt.pr "%a.@." Logic.Cq.pp e.Workload.Zoo.query;
            exit_ok
        | Some e -> (
            Fmt.pr "@[<v>%s (%s)@,theory:@,%a@,query: %a@,@]"
              e.Workload.Zoo.name e.Workload.Zoo.reference Logic.Theory.pp
              e.Workload.Zoo.theory Logic.Cq.pp e.Workload.Zoo.query;
            let db = Workload.Zoo.database_instance e in
            let params = { Finitemodel.Pipeline.default_params with budget } in
            match
              Finitemodel.Pipeline.construct ~params e.Workload.Zoo.theory db
                e.Workload.Zoo.query
            with
            | Finitemodel.Pipeline.Model (cert, _) ->
                Fmt.pr "pipeline: model with %d elements (verified %b)@."
                  (Structure.Instance.num_elements
                     cert.Finitemodel.Certificate.model)
                  (Finitemodel.Certificate.is_valid cert);
                exit_ok
            | Finitemodel.Pipeline.Query_entailed d ->
                Fmt.pr "pipeline: query certain at depth %d@." d;
                exit_entailed
            | Finitemodel.Pipeline.Unknown (why, _) ->
                Fmt.pr "pipeline: unknown (%s)@." why;
                exit_unknown))
  in
  Cmd.v (Cmd.info "zoo" ~doc:"The paper's example zoo." ~exits)
    Term.(
      const run $ entry_name $ dump $ budget_term $ obs_term $ verbose_arg)

(* ----------------------------- serve ------------------------------ *)

let serve_cmd =
  let socket =
    Arg.(
      value & opt (some string) None
      & info [ "socket" ] ~docv:"PATH"
          ~doc:"Serve a Unix-domain socket at $(docv) (many concurrent \
                connections) instead of stdio.  The socket file is removed \
                on shutdown.")
  in
  let max_inflight =
    Arg.(
      value & opt int 64
      & info [ "max-inflight" ] ~docv:"N"
          ~doc:"Admission bound: at most $(docv) requests are served per \
                wake-up; the excess get immediate $(b,overloaded) replies \
                with a retry_after_s hint instead of queueing.")
  in
  let rounds =
    Arg.(
      value & opt int 16
      & info [ "rounds" ] ~docv:"N"
          ~doc:"Default chase-prefix depth for $(b,query) requests (kept \
                resident per session; override per request).")
  in
  let inject =
    Arg.(
      value & opt (some int) None
      & info [ "inject-faults" ] ~docv:"SEED"
          ~doc:"Seeded fault injection (testing): each request may draw a \
                budget trap, a request truncation or a session poisoning \
                from a deterministic stream.  Faulted requests always \
                answer $(b,fault_injected) and evict their session; the \
                server itself must survive.")
  in
  let run socket max_inflight rounds timeout fuel inject obs verbose =
    setup_logs verbose;
    with_obs ~cmd:"serve" obs @@ fun () ->
    let config =
      { Serve.Server.default_config with
        deadline_s = timeout;
        fuel;
        max_inflight;
        chase_rounds = rounds;
        faults = Option.map (fun seed -> Serve.Faults.seeded ~seed) inject;
      }
    in
    let t = Serve.Server.create ~config () in
    match socket with
    | None ->
        Serve.Server.serve_stdio t;
        exit_ok
    | Some path -> (
        try
          Serve.Server.serve_socket t ~path;
          exit_ok
        with Unix.Unix_error (e, _, _) ->
          Fmt.epr "bddfc: %s: %s@." path (Unix.error_message e);
          exit_input_error)
  in
  (* serve takes the same --timeout/--fuel spelling as the batch
     commands, but as per-request defaults rather than one governor *)
  let timeout =
    Arg.(
      value & opt (some float) None
      & info [ "timeout" ] ~docv:"SECONDS"
          ~doc:"Default per-request wall-clock deadline; a request's own \
                $(b,deadline_s) member takes precedence.  Expiry answers \
                that request $(b,budget_exhausted) and evicts its session; \
                the server keeps serving.")
  in
  let fuel =
    Arg.(
      value & opt (some int) None
      & info [ "fuel" ] ~docv:"N"
          ~doc:"Default per-request uniform fuel for every engine counter; \
                a request's own $(b,fuel) member takes precedence.")
  in
  Cmd.v
    (Cmd.info "serve"
       ~doc:
         "Long-lived reasoning server: newline-delimited JSON requests \
          (load/judge/cert/query/evict/ping/stats/shutdown) against warm \
          sessions, with per-request deadlines, crash containment and \
          bounded in-flight admission."
       ~exits)
    Term.(
      const run $ socket $ max_inflight $ rounds $ timeout $ fuel $ inject
      $ obs_term $ verbose_arg)

let main =
  let info =
    Cmd.info "bddfc" ~version:"1.0.0"
      ~doc:"Chase, rewriting and finite-model tools for Datalog-exists"
      ~exits
  in
  Cmd.group info
    [ chase_cmd; rewrite_cmd; classify_cmd; lint_cmd; analyze_cmd; model_cmd;
      judge_cmd; dot_cmd; zoo_cmd; serve_cmd ]

(* command-line usage errors share the input-error code so every
   "you gave me bad input" failure is scriptable as exit 2 *)
let () =
  match Cmd.eval_value main with
  | Ok (`Ok code) -> exit code
  | Ok (`Version | `Help) -> exit exit_ok
  | Error (`Parse | `Term) -> exit exit_input_error
  | Error `Exn -> exit Cmd.Exit.internal_error
