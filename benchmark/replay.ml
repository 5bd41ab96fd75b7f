(* The traced run: replay a request through the layers' public functions,
   recording a span around every call into a layer.

   The replay follows pipeline.ml steps 1-7 (with the pre-flight and the
   depth and n schedules), judge.ml, and the serve session's query and
   update paths, using only what the layers' .mli files export.  The
   front door is never traced: the traced run calls it first, untimed by
   spans, and then replays the same request; the two verdicts must be
   equal.  Spans live in memory until the run ends. *)

open Bddfc
module Pipeline = Finitemodel.Pipeline
module Certificate = Finitemodel.Certificate
module Normalize = Finitemodel.Normalize
module Model_check = Finitemodel.Model_check
module Naive = Finitemodel.Naive
module Judge = Finitemodel.Judge
module Chase = Chase.Chase
module Maintain = Bddfc_chase.Maintain
module Skeleton = Bddfc_chase.Skeleton
module Termination = Bddfc_chase.Termination
module Budget = Bddfc_budget.Budget
module Instance = Structure.Instance
module Bgraph = Structure.Bgraph
module Rewrite = Rewriting.Rewrite
module Coloring = Ptp.Coloring
module Refine = Ptp.Refine
module Quotient = Ptp.Quotient
module Eval = Hom.Eval
module Hc = Hom.Hc

(* ------------------------------- spans ------------------------------- *)

type span = {
  id : int;
  parent : int;  (** -1 for a request's root span *)
  request : int;
  name : string;
  start : float;
  stop : float;
}

let spans : span list ref = ref []
let next_id = ref 0
let request = ref 0

(* open spans, innermost first: id and time covered by finished children *)
let stack : (int * float ref) list ref = ref []
let self_s : (string, float ref) Hashtbl.t = Hashtbl.create 32

let span name f =
  let id = !next_id in
  incr next_id;
  let parent = match !stack with (p, _) :: _ -> p | [] -> -1 in
  let children = ref 0. in
  stack := (id, children) :: !stack;
  let start = Clock.now () in
  let finish () =
    let stop = Clock.now () in
    stack := List.tl !stack;
    let d = stop -. start in
    (match !stack with (_, c) :: _ -> c := !c +. d | [] -> ());
    (match Hashtbl.find_opt self_s name with
    | Some r -> r := !r +. (d -. !children)
    | None -> Hashtbl.add self_s name (ref (d -. !children)));
    spans := { id; parent; request = !request; name; start; stop } :: !spans
  in
  match f () with
  | r ->
      finish ();
      r
  | exception e ->
      finish ();
      raise e

let self name =
  match Hashtbl.find_opt self_s name with Some r -> !r | None -> 0.

(* Seconds one span costs the recorder, for [trace.overhead_ratio];
   call {!reset} afterwards. *)
let per_span_cost () =
  let n = 20_000 in
  let t0 = Clock.now () in
  for _ = 1 to n do
    span "calibrate" ignore
  done;
  (Clock.now () -. t0) /. float_of_int n

let write_spans path =
  let oc = open_out path in
  List.iter
    (fun s ->
      Printf.fprintf oc
        "{\"id\":%d,\"parent\":%d,\"request\":%d,\"name\":\"%s\",\"start\":%.6f,\"end\":%.6f}\n"
        s.id s.parent s.request s.name s.start s.stop)
    (List.rev !spans);
  close_out oc

(* ------------------------- layer-local counts ------------------------- *)

(* Sizes and outcomes only the replay sees (they are not registry
   counters), summed by name. *)
let counts : (string, int) Hashtbl.t = Hashtbl.create 16
let count k = Option.value (Hashtbl.find_opt counts k) ~default:0
let note k n = Hashtbl.replace counts k (count k + n)

(* Forget every span and count: a new traced run starts here. *)
let reset () =
  spans := [];
  next_id := 0;
  request := 0;
  Hashtbl.reset self_s;
  Hashtbl.reset counts

(* ------------------------------ verdicts ------------------------------ *)

(* What a user sees of an answer; the front door and the replay must
   agree on it exactly. *)
type verdict =
  | Model of int  (** countermodel elements *)
  | Certain of int  (** chase depth *)
  | Unknown
  | Witness of int
  | No_small_model
  | Open

let show = function
  | Model n -> Printf.sprintf "model:%d" n
  | Certain d -> Printf.sprintf "certain:%d" d
  | Unknown -> "unknown"
  | Witness n -> Printf.sprintf "witness:%d" n
  | No_small_model -> "no_small_model"
  | Open -> "open"

let elements (c : Certificate.t) = Instance.num_elements c.Certificate.model

let of_outcome = function
  | Pipeline.Model (c, _) -> Model (elements c)
  | Pipeline.Query_entailed d -> Certain d
  | Pipeline.Unknown _ -> Unknown

let of_evidence = function
  | Judge.Certain d -> Certain d
  | Judge.Witness (c, _) -> Witness (elements c)
  | Judge.No_small_model _ -> No_small_model
  | Judge.Open _ -> Open

(* ------------------------- pipeline.ml, replayed ----------------------- *)

(* The verified countermodel of pipeline.ml's final step, or Unknown. *)
let verified theory db query inst =
  let model = Pipeline.original_signature_model theory db inst in
  if Certificate.is_valid { Certificate.theory; database = db; query; model }
  then Model (Instance.num_elements model)
  else Unknown

let construct_at ~(params : Pipeline.params) ~budget ~(hidden : Normalize.hidden)
    ~t2 ~terminating theory db query ~depth =
  let qpred = hidden.Normalize.query_pred in
  let chase =
    span "chase.prefix" @@ fun () ->
    if terminating then
      Chase.run ~strategy:params.strategy ~eval:params.eval ?budget ~watch:qpred t2 db
    else
      Chase.run ~strategy:params.strategy ~eval:params.eval ?budget ~watch:qpred
        ~max_rounds:depth ~max_elements:params.max_chase_elements t2 db
  in
  note "prefixes" 1;
  note "prefix_elements" (Instance.num_elements chase.Chase.instance);
  if
    chase.Chase.outcome = Chase.Watched
    || Instance.facts_with_pred chase.Chase.instance qpred <> []
  then
    Certain
      (match chase.Chase.watch_round with
      | Some r -> max 0 (r - 2)
      | None -> chase.Chase.rounds)
  else if chase.Chase.outcome = Chase.Fixpoint then
    span "finitemodel.verify" (fun () -> verified theory db query chase.Chase.instance)
  else
    match
      match chase.Chase.outcome with
      | Chase.Exhausted (Budget.Deadline as r) -> Some r
      | Chase.Exhausted r when terminating -> Some r
      | _ -> Option.bind budget Budget.exhausted_now
    with
    | Some _ -> Unknown
    | None ->
        let sk = span "chase.skeleton" (fun () -> Skeleton.extract t2 chase) in
        note "skeletons" 1;
        note "skeleton_facts" (Instance.num_facts sk.Skeleton.skeleton);
        let kap =
          span "rewriting.kappa" @@ fun () ->
          Rewrite.kappa ?budget ~eval:params.eval ~hc:params.hc
            ~max_disjuncts:params.rewrite_max_disjuncts
            ~max_steps:params.rewrite_max_steps t2
        in
        note "kappas" 1;
        if kap.Rewrite.all_complete then note "kappas_complete" 1;
        let m =
          match params.coloring_m with
          | Some m -> m
          | None ->
              let base =
                max (Logic.Theory.max_body_vars t2) (Logic.Cq.num_vars query)
              in
              if kap.Rewrite.all_complete then max kap.Rewrite.kappa base
              else base
        in
        let coloring =
          span "ptp.coloring" (fun () -> Coloring.natural ~m sk.Skeleton.skeleton)
        in
        note "colorings" 1;
        note "lightnesses" coloring.Coloring.num_lightnesses;
        let colored = coloring.Coloring.colored in
        let try_n n =
          note "quotients" 1;
          let g = span "structure.bgraph" (fun () -> Bgraph.make colored) in
          let refinement =
            span "ptp.refine" (fun () ->
                Refine.compute ~mode:params.refine_mode ?budget ~depth:n g)
          in
          note "quotient_classes" refinement.Refine.num_classes;
          let m0 =
            span "ptp.quotient" (fun () ->
                Instance.copy
                  (Quotient.of_refinement colored refinement).Quotient.quotient)
          in
          let sat =
            span "chase.saturate" (fun () ->
                Chase.saturate_datalog ~strategy:params.strategy
                  ~eval:params.eval ?budget ~max_rounds:params.saturation_rounds
                  t2 m0)
          in
          let m1 = sat.Chase.instance in
          if not (Chase.is_model sat) then Unknown
          else if Instance.facts_with_pred m1 qpred <> [] then Unknown
          else if
            span "hom.query_eval" (fun () ->
                match params.hc with
                | Hc.Structural -> Eval.holds ~engine:params.eval m1 query
                | Hc.Interned -> Hc.holds_memo ~engine:params.eval m1 ~init:[] query)
          then Unknown
          else
            span "finitemodel.verify" @@ fun () ->
            match Model_check.violations ~limit:1 ~eval:params.eval t2 m1 with
            | _ :: _ -> Unknown
            | [] -> verified theory db query m1
        in
        let rec search = function
          | [] -> Unknown
          | n :: rest -> (
              match Option.bind budget Budget.exhausted_now with
              | Some _ -> Unknown
              | None -> (
                  match try_n n with
                  | Unknown -> search rest
                  | v ->
                      note "quotients_ok" 1;
                      v))
        in
        search params.n_schedule

(* The replay runs with the front door's own [params]; requests carry no
   budget, so the governor branches of pipeline.ml reduce to the
   pre-flight's unlimited budget. *)
let construct ~(params : Pipeline.params) theory db query =
  let normalized =
    span "finitemodel.normalize" @@ fun () ->
    let hidden = Normalize.hide_query theory query in
    match Normalize.spade5 hidden.Normalize.theory with
    | split -> Some (hidden, split.Normalize.theory)
    | exception Normalize.Unsupported _ -> None
  in
  match normalized with
  | None -> Unknown
  | Some (hidden, t2) -> (
      let preflight =
        params.preflight
        && span "chase.termination" (fun () ->
               Termination.weakly_acyclic t2 || Termination.jointly_acyclic t2)
      in
      let pre =
        if not preflight then None
        else
          match
            construct_at ~params ~budget:(Some Budget.unlimited) ~hidden ~t2
              ~terminating:true theory db query ~depth:params.chase_depth
          with
          | Unknown -> None
          | v -> Some v
      in
      match pre with
      | Some v -> v
      | None ->
          let rec over_depths = function
            | [] -> Unknown
            | mult :: rest -> (
                match
                  construct_at ~params ~budget:params.budget ~hidden ~t2
                    ~terminating:false theory db query
                    ~depth:(params.chase_depth * mult)
                with
                | Unknown when rest <> [] -> over_depths rest
                | v -> v)
          in
          over_depths
            (match params.depth_growth with [] -> [ 1 ] | l -> l))

(* --------------------------- judge.ml, replayed ------------------------ *)

let judge ~(budget : Judge.budget) theory db query =
  let params = budget.Judge.pipeline_params in
  let governor = params.Pipeline.budget in
  ignore
    (span "classes.recognize" (fun () -> Classes.Recognize.report theory));
  if Logic.Theory.all_single_head theory then begin
    let kap =
      span "rewriting.kappa" @@ fun () ->
      Rewrite.kappa ?budget:governor ~eval:params.eval ~hc:params.hc
        ~max_disjuncts:params.rewrite_max_disjuncts
        ~max_steps:params.rewrite_max_steps theory
    in
    note "kappas" 1;
    if kap.Rewrite.all_complete then note "kappas_complete" 1
  end;
  let checked m =
    match span "finitemodel.verify" (fun () ->
              Certificate.is_valid
                { Certificate.theory; database = db; query; model = m })
    with
    | true -> Witness (Instance.num_elements m)
    | false -> Open
  in
  match construct ~params theory db query with
  | Model n -> Witness n
  | (Certain _ | Witness _ | No_small_model | Open) as v -> v
  | Unknown -> (
      match
        span "finitemodel.naive.search" (fun () ->
            Naive.search ?budget:governor ~strategy:params.strategy
              ~eval:params.eval ~params:budget.Judge.search_params theory db
              query)
      with
      | Naive.Found m -> checked m
      | Naive.Exhausted | Naive.Budget_out _ -> (
          match
            span "finitemodel.naive.exhaustive" (fun () ->
                Naive.exhaustive_absence ?budget:governor ~eval:params.eval
                  ~max_candidates:budget.Judge.exhaustive_candidates
                  ~max_extra:budget.Judge.exhaustive_extra theory db query)
          with
          | Naive.No_model -> No_small_model
          | Naive.Counter_model m -> checked m
          | Naive.Too_large _ | Naive.Absence_exhausted _ -> Open))

(* ------------------------ serve session, replayed ---------------------- *)

(* The mirror of one warm session: the theory, the base database and the
   resident chase prefix, maintained by the same calls the server makes
   (each serve request runs under its own, here unlimited, budget). *)
type mirror = {
  theory : Logic.Theory.t;
  db : Instance.t;
  mutable state : Maintain.state;
}

let mirror ~rounds program =
  let p = Logic.Parser.parse_program program in
  let theory = Logic.Theory.make p.Logic.Parser.rules in
  let db = Instance.of_atoms p.Logic.Parser.facts in
  { theory; db;
    state = Maintain.saturate ~budget:(Budget.v ()) ~max_rounds:rounds theory db }

(* The serve layer's own work, replayed: parse the request line and
   build the reply. *)
let parse_line line =
  span "serve.protocol" @@ fun () ->
  match Serve.Protocol.parse_request line with
  | Ok r -> r
  | Error (_, _, msg) -> failwith msg

let reply (r : Serve.Protocol.request) fields =
  ignore
    (span "serve.protocol" (fun () ->
         Serve.Protocol.ok ~id:r.Serve.Protocol.id ~op:r.Serve.Protocol.op
           (("session", Obs.Json.S "g") :: fields)))

let member = function Some v -> v | None -> failwith "benchmark: incomplete request"
let int n = Obs.Json.N (float_of_int n)

(* [holds] and the resident fact count, as a query reply reports them. *)
let query m line =
  let r = parse_line line in
  let q =
    span "logic.parse" (fun () -> Logic.Parser.parse_query (member r.Serve.Protocol.query))
  in
  let inst = m.state.Maintain.inst in
  let holds = span "hom.query_eval" (fun () -> Eval.holds inst q) in
  reply r
    [ ("holds", Obs.Json.B holds); ("rounds", int m.state.Maintain.rounds);
      ("facts", int (Instance.num_facts inst)); ("complete", Obs.Json.B true);
      ("cached", Obs.Json.B true) ];
  (holds, Instance.num_facts inst)

(* Facts changed in the base db and whether maintenance bailed out. *)
let update m ~rounds line =
  let r = parse_line line in
  let atoms =
    span "logic.parse" (fun () -> Logic.Parser.parse_atoms (member r.Serve.Protocol.facts))
  in
  let assert_ = r.Serve.Protocol.op = Serve.Protocol.Assert in
  let insert, retract = if assert_ then (atoms, []) else ([], atoms) in
  let changed, bailed_out =
    span "chase.maintain" @@ fun () ->
    let ins, rem = Maintain.update_db m.db ~insert ~retract in
    let st, stats =
      Maintain.apply ~budget:(Budget.v ()) ~max_rounds:rounds m.theory ~db:m.db
        m.state ~insert ~retract
    in
    m.state <- st;
    ((if assert_ then ins else rem), stats.Maintain.bailed_out)
  in
  reply r
    [ ((if assert_ then "inserted" else "retracted"), int changed);
      ("db_facts", int (Instance.num_facts m.db)); ("maintained", int 1);
      ("bailouts", int (if bailed_out then 1 else 0)) ];
  (changed, bailed_out)
