(* The experiment harness: regenerates every experiment table of
   EXPERIMENTS.md (the paper has no tables or figures of its own; each
   EX-n below mechanizes a worked example, lemma or construction — see
   DESIGN.md section 4 for the index).

     dune exec bench/main.exe

   The tables are deterministic measurements (sizes, counts, outcomes);
   EX-12 closes with bechamel micro-benchmarks (wall-clock estimates, so
   numbers vary run to run; the *shape* is the claim). *)

open Bddfc
open Bddfc_workload
module I = Structure.Instance

(* One optional governor for the whole harness: --timeout caps the wall
   clock of every budgeted call, --fuel bounds each engine counter.  The
   tables then show budget-exhausted outcomes instead of hanging. *)
let governor : Budget.t option ref = ref None

(* --check FILE runs every gated experiment (EX-17, EX-18 and EX-20 to
   EX-22, see "The counter gate" below) and compares its deterministic
   counters with the committed blob, exiting 1 on any violation; --write
   FILE re-records that blob.  Without either flag the harness prints every table.
   --obs-smoke runs only the observability smoke: tracing must be
   semantically inert and the disabled path free of measurable overhead.
   --metrics-out writes the final metrics-registry snapshot as a
   BENCH_*.json-compatible blob (flat {name, value, unit} samples). *)
let check_file = ref ""
let write_file = ref ""
let obs_smoke_only = ref false
let metrics_out = ref ""

let parse_args () =
  let timeout = ref nan in
  let fuel = ref 0 in
  Arg.parse
    [ ("--timeout", Arg.Set_float timeout,
       "SECONDS wall-clock deadline shared by every budgeted call");
      ("--fuel", Arg.Set_int fuel,
       "N uniform fuel for every engine counter");
      ("--check", Arg.Set_string check_file,
       "FILE run the gated experiments; exit 1 when a counter leaves its \
        tolerance of the committed blob or a structural gate fails");
      ("--write", Arg.Set_string write_file,
       "FILE run the gated experiments and record their counters as the blob");
      ("--obs-smoke", Arg.Set obs_smoke_only,
       " run only the observability smoke (tracing inertness + disabled \
        overhead); exit 1 on divergence");
      ("--metrics-out", Arg.Set_string metrics_out,
       "FILE write the final metrics snapshot as a BENCH json blob") ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "bench [--timeout SECONDS] [--fuel N] [--check FILE] [--write FILE] \
     [--obs-smoke] [--metrics-out FILE]";
  let some_if cond v = if cond then Some v else None in
  let deadline_s = some_if (Float.is_finite !timeout) !timeout in
  let fuel = some_if (!fuel > 0) !fuel in
  if deadline_s <> None || fuel <> None then
    governor :=
      Some
        (Budget.v ?deadline_s ?rounds:fuel ?elements:fuel ?facts:fuel
           ?rewrite_steps:fuel ?refine_steps:fuel ?nodes:fuel ())

let write_metrics_blob () =
  if !metrics_out <> "" then begin
    let oc = open_out !metrics_out in
    output_string oc (Obs.Metrics.to_bench_json (Obs.Metrics.snapshot ()));
    output_char oc '\n';
    close_out oc;
    Fmt.pr "wrote metrics blob to %s@." !metrics_out
  end

let header title =
  Fmt.pr "@.================================================================@.";
  Fmt.pr "%s@." title;
  Fmt.pr "================================================================@."

let time_it f =
  let t0 = Unix.gettimeofday () in
  let r = f () in
  (r, Unix.gettimeofday () -. t0)

(* [f ()] timed, with the registry's integer counter deltas over the run. *)
let measure f =
  let before = Obs.Metrics.snapshot () in
  let r, t = time_it f in
  (r, t, Obs.Metrics.ints_delta ~before ~after:(Obs.Metrics.snapshot ()))

(* One counter of a [measure] delta; 0 when the run did not move it. *)
let count delta name = Option.value (List.assoc_opt name delta) ~default:0

let pipeline_outcome theory db q =
  let params =
    { Finitemodel.Pipeline.default_params with budget = !governor }
  in
  match Finitemodel.Pipeline.construct ~params theory db q with
  | Finitemodel.Pipeline.Model (cert, stats) ->
      let ok = Finitemodel.Certificate.is_valid cert in
      Printf.sprintf "model(%d elts, verified %b, n=%s)"
        (I.num_elements cert.Finitemodel.Certificate.model)
        ok
        (match stats.Finitemodel.Pipeline.n_used with
        | Some n -> string_of_int n
        | None -> "-")
  | Finitemodel.Pipeline.Query_entailed d -> Printf.sprintf "certain@%d" d
  | Finitemodel.Pipeline.Unknown (why, _) -> "unknown: " ^ why

(* ------------------------------------------------------------------ *)
(* EX-1: Example 1 — naive collapse vs the Theorem 2 pipeline          *)
(* ------------------------------------------------------------------ *)

let ex1_pipeline () =
  header "EX-1 (Example 1): homomorphic collapse vs Theorem 2 pipeline";
  let e = Option.get (Zoo.find "ex1") in
  let db = Zoo.database_instance e in
  let m3 = I.of_atoms (Logic.Parser.parse_atoms "e(a,b). e(b,c). e(c,a).") in
  Fmt.pr "3-cycle collapse M' of the chase: model of T? %b@."
    (Finitemodel.Model_check.is_model e.Zoo.theory m3);
  let rechase = Chase.Chase.run ~max_rounds:8 e.Zoo.theory m3 in
  Fmt.pr "Chase(M',T) after 8 rounds: %d elements (diverging: %b)@."
    (I.num_elements rechase.Chase.Chase.instance)
    (not (Chase.Chase.is_model rechase));
  Fmt.pr "pipeline on (T, {e(a,b)}, ?u(X,Y)): %s@."
    (pipeline_outcome e.Zoo.theory db e.Zoo.query)

(* ------------------------------------------------------------------ *)
(* EX-2: Examples 3/4 — the conservativity frontier                    *)
(* ------------------------------------------------------------------ *)

let ex34_conservativity () =
  header "EX-2 (Examples 3/4): conservativity frontier over m";
  let chain = Gen.null_chain ~consts:1 ~len:14 () in
  Fmt.pr "%-4s %-6s %-22s %s@." "m" "hues" "least conservative n"
    "conservative up to m+3?";
  List.iter
    (fun m ->
      let col = Ptp.Coloring.natural ~m chain in
      let least = Ptp.Conservative.find_conservative_n ~m ~max_n:5 chain col in
      let beyond =
        match least with
        | Some n ->
            (Ptp.Conservative.check_exact ~m:(m + 3) ~n chain col)
              .Ptp.Conservative.conservative
        | None -> false
      in
      Fmt.pr "%-4d %-6d %-22s %b@." m col.Ptp.Coloring.num_hues
        (match least with Some n -> string_of_int n | None -> "none <= 5")
        beyond)
    [ 1; 2; 3 ]

(* ------------------------------------------------------------------ *)
(* EX-3: Example 6 / Remark 3 — orders are not ptp-conservative        *)
(* ------------------------------------------------------------------ *)

let ex6_order () =
  header "EX-3 (Example 6/Remark 3): total orders are never conservative";
  let t = Logic.Parser.parse_theory "e(X,Y), e(Y,Z) -> e(X,Z)." in
  Fmt.pr "fixed k-hue colorings of growing order prefixes (m=2, n=2):@.";
  Fmt.pr "%-6s %-8s %-8s %s@." "len" "facts" "hues" "type-gaining elements";
  List.iter
    (fun (len, k) ->
      let base = Gen.null_chain ~consts:0 ~len () in
      let closed = (Chase.Chase.saturate_datalog t base).Chase.Chase.instance in
      let n_elts = I.num_elements closed in
      let hue = Array.init n_elts (fun i -> i mod k) in
      let col = Ptp.Coloring.materialize closed hue (Array.make n_elts 0) in
      let r = Ptp.Conservative.check_exact ~m:2 ~n:2 closed col in
      Fmt.pr "%-6d %-8d %-8d %d@." len (I.num_facts closed) k
        (List.length r.Ptp.Conservative.failures))
    [ (10, 2); (12, 3); (16, 4) ]

(* ------------------------------------------------------------------ *)
(* EX-4: Examples 7/8 — saturation repairs quotients (Lemma 5)         *)
(* ------------------------------------------------------------------ *)

let ex78_saturation () =
  header "EX-4 (Examples 7/8, Lemma 5): datalog saturation of quotients";
  let e = Option.get (Zoo.find "ex7") in
  let d = Zoo.database_instance e in
  let chase = Chase.Chase.run ~max_rounds:14 e.Zoo.theory d in
  let sk = Chase.Skeleton.extract e.Zoo.theory chase in
  let col = Ptp.Coloring.natural ~m:3 sk.Chase.Skeleton.skeleton in
  Fmt.pr "%-4s %-10s %-12s %-12s %s@." "n" "quotient" "sat. facts"
    "new elems" "model after saturation";
  List.iter
    (fun n ->
      let g = Structure.Bgraph.make col.Ptp.Coloring.colored in
      let r = Ptp.Refine.compute ~mode:Ptp.Refine.Backward ~depth:n g in
      let qt = Ptp.Quotient.of_refinement col.Ptp.Coloring.colored r in
      let m0 = I.copy qt.Ptp.Quotient.quotient in
      let before_facts = I.num_facts m0 and before_elems = I.num_elements m0 in
      let sat = Chase.Chase.saturate_datalog e.Zoo.theory m0 in
      Fmt.pr "%-4d %-10d %-12d %-12d %b@." n before_elems
        (I.num_facts sat.Chase.Chase.instance - before_facts)
        (I.num_elements sat.Chase.Chase.instance - before_elems)
        (Finitemodel.Model_check.is_model e.Zoo.theory sat.Chase.Chase.instance))
    [ 1; 2; 3; 4 ]

(* ------------------------------------------------------------------ *)
(* EX-5: Example 9 — cycles in tree quotients                          *)
(* ------------------------------------------------------------------ *)

let ex9_cycles () =
  header "EX-5 (Example 9, Lemma 9): cycles in quotients of the F/G tree";
  let e = Option.get (Zoo.find "ex9") in
  let chase =
    Chase.Chase.run ~max_rounds:7 ~max_elements:2000 e.Zoo.theory
      (Zoo.database_instance e)
  in
  let sk = Chase.Skeleton.extract e.Zoo.theory chase in
  let col = Ptp.Coloring.natural ~m:2 sk.Chase.Skeleton.skeleton in
  Fmt.pr "tree: %d elements@." (I.num_elements sk.Chase.Skeleton.skeleton);
  Fmt.pr "%-4s %-10s %-18s %s@." "n" "quotient" "directed cyc <=3"
    "undirected 4-cycle";
  let cyc4 =
    Logic.Parser.parse_query "? f(X1,X3), f(X2,X3), g(X2,X4), g(X1,X4)."
  in
  List.iter
    (fun n ->
      let g = Structure.Bgraph.make col.Ptp.Coloring.colored in
      let r = Ptp.Refine.compute ~mode:Ptp.Refine.Backward ~depth:n g in
      let qt = Ptp.Quotient.of_refinement col.Ptp.Coloring.colored r in
      let base = Ptp.Coloring.uncolor qt.Ptp.Quotient.quotient in
      let qg = Structure.Bgraph.make base in
      Fmt.pr "%-4d %-10d %-18b %b@." n (I.num_elements base)
        (Structure.Bgraph.has_directed_cycle_upto qg 3)
        (Hom.Eval.holds base cyc4))
    [ 1; 2; 3 ]

(* ------------------------------------------------------------------ *)
(* EX-6: Theorem 2 pipeline vs the naive search baseline               *)
(* ------------------------------------------------------------------ *)

let thm2_vs_naive () =
  header "EX-6 (Theorem 2): pipeline vs naive search";
  Fmt.pr
    "On FC instances small countermodels exist and blind search finds the@.";
  Fmt.pr
    "minimum instantly; the pipeline instead pays for the paper's verified@.";
  Fmt.pr
    "construction, scaling linearly with the instance.  On the non-FC@.";
  Fmt.pr
    "instance (sec55) the search comes back empty-handed and inconclusive@.";
  Fmt.pr
    "(budget), while the pipeline's bounded attempts settle on Unknown.@.@.";
  let run_naive theory d q ~max_size ~max_nodes =
    let params =
      { Finitemodel.Naive.default_search_params with max_size; max_nodes }
    in
    match Finitemodel.Naive.search ?budget:!governor ~params theory d q with
    | Finitemodel.Naive.Found m ->
        Printf.sprintf "model(%d elts)" (I.num_elements m)
    | Finitemodel.Naive.Exhausted -> "exhausted"
    | Finitemodel.Naive.Budget_out { tripped; _ } ->
        Printf.sprintf "budget out (%s)" (Budget.resource_name tripped)
  in
  Fmt.pr "%-14s %-34s %-10s %-22s %-10s@." "instance" "pipeline" "time(s)"
    "naive search" "time(s)";
  let ex1 = Option.get (Zoo.find "ex1") in
  List.iter
    (fun n ->
      let d = Gen.seeds ~n () in
      let q = Logic.Parser.parse_query "? u(X,Y)." in
      let p, tp = time_it (fun () -> pipeline_outcome ex1.Zoo.theory d q) in
      let nv, tn =
        time_it (fun () ->
            run_naive ex1.Zoo.theory d q ~max_size:((2 * n) + 6)
              ~max_nodes:40_000)
      in
      Fmt.pr "%-14s %-34s %-10.3f %-22s %-10.3f@."
        (Printf.sprintf "ex1 x%d" n) p tp nv tn)
    [ 1; 2; 4 ];
  let s55 = Option.get (Zoo.find "sec55") in
  let d55 = Zoo.database_instance s55 in
  let p, tp = time_it (fun () -> pipeline_outcome s55.Zoo.theory d55 s55.Zoo.query) in
  let nv, tn =
    time_it (fun () ->
        run_naive s55.Zoo.theory d55 s55.Zoo.query ~max_size:7
          ~max_nodes:40_000)
  in
  Fmt.pr "%-14s %-34s %-10.3f %-22s %-10.3f@." "sec55 (non-FC)"
    (if String.length p > 32 then String.sub p 0 32 else p)
    tp nv tn

(* ------------------------------------------------------------------ *)
(* EX-7: rewriting sizes and kappa across the zoo                      *)
(* ------------------------------------------------------------------ *)

let rewriting_kappa () =
  header "EX-7: BDD detection, rewriting size and kappa across the zoo";
  Fmt.pr "%-18s %-8s %-10s %s@." "theory" "rules" "complete" "kappa";
  List.iter
    (fun (e : Zoo.entry) ->
      let k =
        Rewriting.Rewrite.kappa ~max_disjuncts:80 ~max_steps:1500 e.Zoo.theory
      in
      Fmt.pr "%-18s %-8d %-10b %d@." e.Zoo.name
        (Logic.Theory.size e.Zoo.theory)
        k.Rewriting.Rewrite.all_complete k.Rewriting.Rewrite.kappa)
    (List.filter
       (fun (e : Zoo.entry) -> Logic.Theory.all_single_head e.Zoo.theory)
       Zoo.all)

(* ------------------------------------------------------------------ *)
(* EX-8: Section 5.5 — executable non-FC evidence                      *)
(* ------------------------------------------------------------------ *)

let nonfc_evidence () =
  header "EX-8 (Section 5.5): non-FC evidence";
  let e = Option.get (Zoo.find "sec55") in
  let d = Zoo.database_instance e in
  Fmt.pr "%-8s %-8s %s@." "depth" "facts" "Phi holds in the chase prefix";
  List.iter
    (fun depth ->
      let r = Chase.Chase.run ~max_rounds:depth e.Zoo.theory d in
      Fmt.pr "%-8d %-8d %b@." depth
        (I.num_facts r.Chase.Chase.instance)
        (Hom.Eval.holds r.Chase.Chase.instance e.Zoo.query))
    [ 2; 4; 8; 12 ];
  let absence, t, delta =
    measure (fun () ->
        Finitemodel.Naive.exhaustive_absence ?budget:!governor
          ~max_candidates:20 ~max_extra:1 e.Zoo.theory d e.Zoo.query)
  in
  Fmt.pr "exhaustive: %d ground clauses, %d decisions, %.1f ms@."
    (count delta "naive.absence_clauses")
    (count delta "naive.absence_decisions")
    (t *. 1000.);
  (match absence with
  | Finitemodel.Naive.No_model ->
      Fmt.pr "exhaustive: no countermodel with <= 1 extra element \
              (RUP refutation checked)@."
  | Finitemodel.Naive.Counter_model _ -> Fmt.pr "?! countermodel found@."
  | Finitemodel.Naive.Too_large k -> Fmt.pr "guard hit (%d candidates)@." k
  | Finitemodel.Naive.Absence_exhausted r ->
      Fmt.pr "exhaustive: %s budget exhausted, nothing proved@."
        (Budget.resource_name r));
  let params =
    { Finitemodel.Naive.default_search_params with
      max_size = 7;
      max_nodes = 30_000;
    }
  in
  (match
     Finitemodel.Naive.search ?budget:!governor ~params e.Zoo.theory d
       e.Zoo.query
   with
  | Finitemodel.Naive.Found _ -> Fmt.pr "?! search found a countermodel@."
  | Finitemodel.Naive.Exhausted -> Fmt.pr "search: exhausted, none found@."
  | Finitemodel.Naive.Budget_out { tripped; nodes } ->
      Fmt.pr "search: %s budget out after %d nodes, none found@."
        (Budget.resource_name tripped) nodes);
  Fmt.pr "pipeline: %s@." (pipeline_outcome e.Zoo.theory d e.Zoo.query)

(* ------------------------------------------------------------------ *)
(* EX-9: Lemma 13 — bounded degree                                     *)
(* ------------------------------------------------------------------ *)

let bounded_degree () =
  header "EX-9 (Lemma 13): distance colorings of bounded-degree prefixes";
  let e = Option.get (Zoo.find "sec55") in
  let d = Zoo.database_instance e in
  let chase = Chase.Chase.run ~max_rounds:24 e.Zoo.theory d in
  let inst = chase.Chase.Chase.instance in
  let g = Structure.Bgraph.make inst in
  Fmt.pr "prefix: %d elements, max degree %d@." (I.num_elements inst)
    (Structure.Bgraph.max_degree g);
  Fmt.pr "%-8s %-8s %-20s %s@." "radius" "hues" "quotient (backward n=2)"
    "m-types preserved (m=2)";
  List.iter
    (fun radius ->
      let col = Ptp.Coloring.distance ~radius inst in
      let gq = Structure.Bgraph.make col.Ptp.Coloring.colored in
      let r = Ptp.Refine.compute ~mode:Ptp.Refine.Backward ~depth:2 gq in
      let qt = Ptp.Quotient.of_refinement col.Ptp.Coloring.colored r in
      let res = Ptp.Conservative.check_quotient ~m:2 inst qt in
      Fmt.pr "%-8d %-8d %-20d %b@." radius col.Ptp.Coloring.num_hues
        (I.num_elements qt.Ptp.Quotient.quotient)
        res.Ptp.Conservative.conservative)
    [ 1; 2; 3 ]

(* ------------------------------------------------------------------ *)
(* EX-10: Section 5.6 — guarded -> binary blowup                       *)
(* ------------------------------------------------------------------ *)

let guarded_blowup () =
  header "EX-10 (Section 5.6): guarded -> binary compilation blowup";
  let inputs =
    [ ("2-step ternary",
       {| start(X) -> exists Z. c(X,Z).
          c(X,Y) -> exists Z. g(X,Y,Z).
          g(X,Y,Z) -> d(Y,Z). |});
      ("with wide body",
       {| start(X) -> exists Z. c(X,Z).
          c(X,Y) -> exists Z. g(X,Y,Z).
          g(X,Y,Z) -> exists W. h(X,Y,Z,W).
          h(X,Y,Z,W) -> d(Z,W). |});
    ]
  in
  Fmt.pr "%-16s %-8s %-10s %-10s %-10s %s@." "input" "rules" "out rules"
    "out preds" "binary" "certain answers preserved";
  List.iter
    (fun (name, src) ->
      let t = Logic.Parser.parse_theory src in
      match Classes.Guarded.to_binary t with
      | gb ->
          let out = gb.Classes.Guarded.theory in
          let d = I.of_atoms (Logic.Parser.parse_atoms "start(a).") in
          let q = Logic.Parser.parse_query "? d(Y,Z)." in
          let cert th =
            match Chase.Chase.certain ~max_rounds:12 th d q with
            | Chase.Chase.Entailed _ -> Some true
            | Chase.Chase.Not_entailed -> Some false
            | Chase.Chase.Unknown _ -> None
          in
          let preserved =
            match (cert t, cert out) with
            | Some a, Some b -> string_of_bool (a = b)
            | _ -> "(budget)"
          in
          Fmt.pr "%-16s %-8d %-10d %-10d %-10b %s@." name (Logic.Theory.size t)
            (Logic.Theory.size out)
            (List.length (Logic.Signature.preds (Logic.Theory.signature out)))
            (Logic.Theory.is_binary out) preserved
      | exception Classes.Guarded.Unsupported why ->
          Fmt.pr "%-16s unsupported: %s@." name why)
    inputs

(* ------------------------------------------------------------------ *)
(* EX-11: Sections 5.2/5.3 — encodings                                 *)
(* ------------------------------------------------------------------ *)

let encodings () =
  header "EX-11 (Sections 5.2/5.3): ternary and single-head encodings";
  let e = Option.get (Zoo.find "sec54") in
  let enc = Classes.Ternary.encode e.Zoo.theory in
  Fmt.pr "ternary (5.2): %d rules (max arity %d) -> %d rules (max arity %d)@."
    (Logic.Theory.size e.Zoo.theory)
    (Logic.Signature.max_arity (Logic.Theory.signature e.Zoo.theory))
    (Logic.Theory.size enc.Classes.Ternary.theory)
    (Logic.Signature.max_arity
       (Logic.Theory.signature enc.Classes.Ternary.theory));
  let mh =
    Logic.Theory.make
      [ Logic.Rule.make ~name:"r1"
          ~body:[ Logic.Atom.app "p" [ Logic.Term.var "X" ] ]
          ~head:
            [ Logic.Atom.app "e" [ Logic.Term.var "X"; Logic.Term.var "Y" ];
              Logic.Atom.app "q" [ Logic.Term.var "Y" ] ]
          () ]
  in
  let sh = Classes.Multihead.to_single_head mh in
  Fmt.pr "multi-head (5.3): 1 rule -> %d rules, single-head: %b@."
    (Logic.Theory.size sh.Classes.Multihead.theory)
    (Logic.Theory.all_single_head sh.Classes.Multihead.theory)

(* ------------------------------------------------------------------ *)
(* EX-13: ablations of the pipeline's design choices                   *)
(* ------------------------------------------------------------------ *)

let ablations () =
  header "EX-13: pipeline ablations (refinement mode, coloring size m)";
  let show params name entry_name =
    let e = Option.get (Zoo.find entry_name) in
    let d = Zoo.database_instance e in
    let outcome, t =
      time_it (fun () ->
          match Finitemodel.Pipeline.construct ~params e.Zoo.theory d e.Zoo.query with
          | Finitemodel.Pipeline.Model (cert, stats) ->
              Printf.sprintf "model(%d, n=%s)"
                (I.num_elements cert.Finitemodel.Certificate.model)
                (match stats.Finitemodel.Pipeline.n_used with
                | Some n -> string_of_int n
                | None -> "-")
          | Finitemodel.Pipeline.Query_entailed k ->
              Printf.sprintf "certain@%d" k
          | Finitemodel.Pipeline.Unknown _ -> "unknown")
    in
    Fmt.pr "%-10s %-22s %-22s %.3fs@." entry_name name outcome t
  in
  Fmt.pr "(single chase depth: retries disabled to keep variants comparable)@.";
  Fmt.pr "%-10s %-22s %-22s %s@." "zoo" "variant" "outcome" "time";
  List.iter
    (fun entry_name ->
      let p =
        { Finitemodel.Pipeline.default_params with depth_growth = [ 1 ] }
      in
      show p "backward (default)" entry_name;
      show { p with refine_mode = Ptp.Refine.Bidirectional }
        "bidirectional" entry_name;
      show { p with coloring_m = Some 1 } "m = 1 (too few hues)" entry_name;
      show { p with coloring_m = Some 6 } "m = 6 (oversized)" entry_name;
      show { p with n_schedule = [ 1 ] } "n = 1 only" entry_name)
    [ "ex1"; "ex7"; "ex9" ]

(* ------------------------------------------------------------------ *)
(* EX-12: micro-benchmarks (bechamel)                                  *)
(* ------------------------------------------------------------------ *)

let micro () =
  header "EX-12: micro-benchmarks (bechamel; ns per run via OLS)";
  let open Bechamel in
  let chain200 = Gen.null_chain ~consts:1 ~len:200 () in
  let linear = Logic.Parser.parse_theory "e(X,Y) -> exists Z. e(Y,Z)." in
  let ex1 = (Option.get (Zoo.find "ex1")).Zoo.theory in
  let seed = I.of_atoms (Logic.Parser.parse_atoms "e(a,b).") in
  let path3 = Logic.Parser.parse_query "? e(X,Y), e(Y,Z), e(Z,W)." in
  let c30 = Gen.null_chain ~consts:1 ~len:30 () in
  let tests =
    Test.make_grouped ~name:"bddfc"
      [ Test.make ~name:"chase/linear/24-rounds"
          (Staged.stage (fun () ->
               ignore (Chase.Chase.run ~max_rounds:24 linear seed)));
        Test.make ~name:"chase/ex1/12-rounds"
          (Staged.stage (fun () ->
               ignore (Chase.Chase.run ~max_rounds:12 ex1 seed)));
        Test.make ~name:"eval/path3/chain200"
          (Staged.stage (fun () -> ignore (Hom.Eval.holds chain200 path3)));
        Test.make ~name:"refine/depth4/chain200"
          (Staged.stage (fun () ->
               let g = Structure.Bgraph.make chain200 in
               ignore (Ptp.Refine.compute ~mode:Ptp.Refine.Backward ~depth:4 g)));
        Test.make ~name:"rewrite/ex1/u-query"
          (Staged.stage (fun () ->
               ignore
                 (Rewriting.Rewrite.rewrite ex1
                    (Logic.Parser.parse_query "? u(X,Y)."))));
        Test.make ~name:"pipeline/ex1"
          (Staged.stage (fun () ->
               ignore
                 (Finitemodel.Pipeline.construct ex1 seed
                    (Logic.Parser.parse_query "? u(X,Y)."))));
        Test.make ~name:"ptypes/vars2/chain30"
          (Staged.stage (fun () -> ignore (Hom.Ptypes.classes ~vars:2 c30)));
      ]
  in
  let cfg = Benchmark.cfg ~limit:1000 ~quota:(Time.second 0.4) ~kde:None () in
  let raw = Benchmark.all cfg Toolkit.Instance.[ monotonic_clock ] tests in
  let ols =
    Analyze.ols ~r_square:false ~bootstrap:0 ~predictors:[| Measure.run |]
  in
  let results = Analyze.all ols Toolkit.Instance.monotonic_clock raw in
  let rows = Hashtbl.fold (fun k v acc -> (k, v) :: acc) results [] in
  List.iter
    (fun (name, est) ->
      match Analyze.OLS.estimates est with
      | Some (ns :: _) ->
          Fmt.pr "%-36s %14.0f ns/run  (%10.3f ms)@." name ns (ns /. 1.e6)
      | _ -> Fmt.pr "%-36s (no estimate)@." name)
    (List.sort compare rows)

(* ------------------------------------------------------------------ *)
(* EX-14: naive vs semi-naive chase evaluation                         *)
(* ------------------------------------------------------------------ *)

let strategy_name = function
  | Chase.Chase.Naive -> "naive"
  | Chase.Chase.Seminaive -> "seminaive"

(* The scaling workloads: datalog saturation (transitive closure, where
   delta-driven evaluation shines) and a restricted chase with
   existentials (where witness checks dominate). *)
let ex14_workloads () =
  let tc = Logic.Parser.parse_theory "e(X,Y), e(Y,Z) -> e(X,Z)." in
  let linear = Logic.Parser.parse_theory "e(X,Y) -> exists Z. e(Y,Z)." in
  [ ("tc/chain30", tc, Gen.chain ~len:30 (), `Saturate);
    ("tc/chain60", tc, Gen.chain ~len:60 (), `Saturate);
    ("tc/digraph80", tc,
     Gen.random_digraph ~nodes:80 ~edges:160 ~seed:7 (), `Saturate);
    ("linear/seeds8", linear, Gen.seeds ~n:8 (), `Rounds 24);
  ]

let ex14_run strategy theory db = function
  | `Saturate ->
      Chase.Chase.saturate_datalog ~strategy ?budget:!governor theory db
  | `Rounds k ->
      Chase.Chase.run ~strategy ?budget:!governor ~max_rounds:k theory db

let ex14_strategies () =
  header "EX-14: naive vs semi-naive chase evaluation (join probes)";
  Fmt.pr "%-16s %-10s %-8s %-8s %-12s %-8s %s@." "workload" "strategy"
    "rounds" "facts" "probes" "time(s)" "probe ratio";
  List.iter
    (fun (name, theory, db, mode) ->
      let naive_probes = ref 0 in
      List.iter
        (fun strategy ->
          Hom.Eval.reset_probes ();
          let r, t = time_it (fun () -> ex14_run strategy theory db mode) in
          let probes = Hom.Eval.probe_count () in
          let ratio =
            if strategy = Chase.Chase.Naive then begin
              naive_probes := probes;
              "-"
            end
            else if probes > 0 then
              Printf.sprintf "%.1fx fewer"
                (float_of_int !naive_probes /. float_of_int probes)
            else "-"
          in
          Fmt.pr "%-16s %-10s %-8d %-8d %-12d %-8.3f %s@." name
            (strategy_name strategy) r.Chase.Chase.rounds
            (I.num_facts r.Chase.Chase.instance)
            probes t ratio)
        [ Chase.Chase.Naive; Chase.Chase.Seminaive ])
    (ex14_workloads ())

(* ------------------------------------------------------------------ *)
(* The counter gate: one row type, one blob, one comparison            *)
(* ------------------------------------------------------------------ *)

(* Each gated experiment (EX-17, EX-18 and EX-20 to EX-22) prints its
   table, enforces its structural claims in process, and reduces its
   measurements to rows of deterministic counters, plus a verdict string
   where the row has one.
   --write records the rows as one blob (BENCH_gate.json); --check
   re-runs the experiments and compares every row with its committed
   twin under the experiment's tolerance, a constant in code.  Wall
   times never enter the blob: benchmark/ owns them. *)

type row = {
  experiment : string;
  workload : string;
  config : string; (* the measured arm, e.g. the join engine *)
  cores : int option; (* the core count the row was recorded on *)
  counters : (string * int) list;
  verdict : string option;
}

type tolerance =
  | Exact
  | At_most of float (* now <= (1 + r) * committed; lower is fine *)
  | Within of float (* |now - committed| <= r * committed *)

type experiment = {
  id : string;
  tolerance : tolerance;
  (* prints the table, reports structural violations through [gate_fail]
     and returns the gated rows *)
  run : unit -> row list;
}

let gate_row experiment ?(config = "") ?verdict workload counters =
  { experiment;
    workload;
    config;
    cores = Some (Domain.recommended_domain_count ());
    counters;
    verdict;
  }

(* Every violation, structural or against the blob, is one line. *)
let gate_failures = ref 0

let gate_fail experiment fmt =
  Fmt.kstr
    (fun msg ->
      incr gate_failures;
      Fmt.epr "bench gate: %s %s@." experiment msg)
    fmt

let row_label r =
  if r.config = "" then r.workload else r.workload ^ " [" ^ r.config ^ "]"

let row_to_json r =
  let open Obs.Json in
  let num n = N (float_of_int n) in
  O
    ([ ("experiment", S r.experiment); ("workload", S r.workload);
       ("config", S r.config) ]
    @ Option.fold ~none:[] ~some:(fun c -> [ ("cores", num c) ]) r.cores
    @ [ ("counters", O (List.map (fun (k, v) -> (k, num v)) r.counters)) ]
    @ Option.fold ~none:[] ~some:(fun v -> [ ("verdict", S v) ]) r.verdict)

(* One row per line, so a re-recorded blob diffs row by row. *)
let write_blob path rows =
  Out_channel.with_open_bin path (fun oc ->
      output_string oc "{\"rows\":[\n";
      output_string oc
        (String.concat ",\n"
           (List.map (fun r -> Obs.Json.to_string (row_to_json r)) rows));
      output_string oc "\n]}\n");
  Fmt.pr "wrote %d gate rows to %s@." (List.length rows) path

exception Bad_row of string

let row_of_json ~known i j =
  let open Obs.Json in
  let bad fmt =
    Fmt.kstr (fun m -> raise (Bad_row (Fmt.str "row %d: %s" i m))) fmt
  in
  let str k =
    match member k j with Some (S s) -> s | _ -> bad "%S is not a string" k
  in
  let int k = function
    | N f when Float.is_integer f -> int_of_float f
    | _ -> bad "%S is not an integer" k
  in
  let experiment = str "experiment" in
  if not (List.mem experiment known) then
    bad "unknown experiment %S" experiment;
  { experiment;
    workload = str "workload";
    config = str "config";
    cores = Option.map (int "cores") (member "cores" j);
    counters =
      (match member "counters" j with
      | Some (O kvs) -> List.map (fun (k, v) -> (k, int k v)) kvs
      | _ -> bad "\"counters\" is not an object");
    verdict =
      (match member "verdict" j with
      | None -> None
      | Some (S v) -> Some v
      | Some _ -> bad "\"verdict\" is not a string");
  }

(* The whole blob is read and validated before anything is measured. *)
let read_blob ~known path =
  match In_channel.with_open_bin path In_channel.input_all with
  | exception Sys_error msg -> Error msg
  | text -> (
      match Obs.Json.parse text with
      | Error msg -> Error (Fmt.str "%s is not JSON: %s" path msg)
      | Ok j -> (
          match Obs.Json.member "rows" j with
          | Some (Obs.Json.A rows) -> (
              try Ok (List.mapi (row_of_json ~known) rows)
              with Bad_row msg -> Error (Fmt.str "%s: %s" path msg))
          | _ -> Error (Fmt.str "%s has no \"rows\" array" path)))

let tolerance_str = function
  | Exact -> "exact"
  | At_most r -> Fmt.str "at most +%.0f%%" (100. *. r)
  | Within r -> Fmt.str "within %.0f%%" (100. *. r)

(* A committed 0 has no ratio to keep, so only [Exact] gates it. *)
let out_of_tolerance tolerance ~committed now =
  let c = float_of_int committed and n = float_of_int now in
  match tolerance with
  | Exact -> now <> committed
  | At_most r -> committed > 0 && n > (1. +. r) *. c
  | Within r -> committed > 0 && (n > (1. +. r) *. c || n < (1. -. r) *. c)

(* The one comparison: every live row against its committed twin, and
   every committed row must still be measured. *)
let compare_rows experiments ~committed ~live =
  let key r = (r.experiment, r.workload, r.config) in
  List.iter
    (fun now ->
      let e = List.find (fun e -> e.id = now.experiment) experiments in
      let fail fmt = gate_fail now.experiment ("%s: " ^^ fmt) (row_label now) in
      match List.find_opt (fun c -> key c = key now) committed with
      | None -> fail "missing from the blob"
      | Some c ->
          List.iter
            (fun (name, v) ->
              match List.assoc_opt name c.counters with
              | None -> fail "counter %s missing from the blob" name
              | Some base ->
                  if out_of_tolerance e.tolerance ~committed:base v then
                    fail "%s %d vs committed %d (%s)" name v base
                      (tolerance_str e.tolerance))
            now.counters;
          List.iter
            (fun (name, _) ->
              if not (List.mem_assoc name now.counters) then
                fail "committed counter %s is no longer measured" name)
            c.counters;
          if c.verdict <> now.verdict then
            fail "verdict %s vs committed %s"
              (Option.value now.verdict ~default:"-")
              (Option.value c.verdict ~default:"-"))
    live;
  List.iter
    (fun c ->
      if not (List.exists (fun r -> key r = key c) live) then
        gate_fail c.experiment "%s: committed row is no longer measured"
          (row_label c))
    committed

(* ------------------------------------------------------------------ *)
(* EX-17: compiled vs interpreted join engine                           *)
(* ------------------------------------------------------------------ *)

(* The engine comparison runs EX-14's workloads once per join engine
   (semi-naive strategy, the default) and reads the registry deltas:
   eval.join_probes (candidate facts tried — identical work, possibly in
   a different order) and eval.index_ops (probe-equivalent index
   operations: candidate lists materialized by the interpreter vs O(1)
   cardinality reads plus probes for compiled plans — the cost the
   compilation exists to remove).  Counts are deterministic; wall times
   are not, so only the counts feed the counter gate. *)

type ex17_row = {
  x_workload : string;
  x_engine : string;
  x_rounds : int; (* chase rounds, or iterations for query workloads *)
  x_facts : int; (* final facts, or solutions for query workloads *)
  x_probes : int;
  x_index_ops : int;
  x_wall_s : float;
}

(* EX-14's chase workloads (1-2 atom bodies, where chase bookkeeping
   dominates) plus repeated wide-body query joins, the shape the
   compilation targets: per probe the interpreter pays Smap lookups and
   candidate-list conses, the compiled plan an int-array walk. *)
let ex17_workloads () =
  let digraph = Gen.random_digraph ~nodes:80 ~edges:160 ~seed:7 () in
  let path4 =
    Logic.Parser.parse_query "? e(X,Y), e(Y,Z), e(Z,W), e(W,V)."
  in
  let tri = Logic.Parser.parse_query "? e(X,Y), e(Y,Z), e(Z,X)." in
  let diamond =
    Logic.Parser.parse_query "? e(X,Y), e(X,Z), e(Y,W), e(Z,W)."
  in
  List.map (fun (n, t, d, m) -> (n, `Chase (t, d, m))) (ex14_workloads ())
  @ [ ("path4/digraph80", `Query (digraph, path4, 40));
      ("tri/digraph80", `Query (digraph, tri, 200));
      ("diamond/digraph80", `Query (digraph, diamond, 100));
    ]

let ex17_measure () =
  List.concat_map
    (fun (name, work) ->
      List.map
        (fun eval ->
          let run () =
            match work with
            | `Chase (theory, db, `Saturate) ->
                let r =
                  Chase.Chase.saturate_datalog ~eval ?budget:!governor theory
                    db
                in
                (r.Chase.Chase.rounds, I.num_facts r.Chase.Chase.instance)
            | `Chase (theory, db, `Rounds k) ->
                let r =
                  Chase.Chase.run ~eval ?budget:!governor ~max_rounds:k theory
                    db
                in
                (r.Chase.Chase.rounds, I.num_facts r.Chase.Chase.instance)
            | `Query (inst, q, iters) ->
                let n = ref 0 in
                for _ = 1 to iters do
                  n := 0;
                  Hom.Eval.iter_solutions ~engine:eval inst
                    (Logic.Cq.body q) (fun _ -> incr n)
                done;
                (iters, !n)
          in
          let (rounds, facts), t, delta = measure run in
          { x_workload = name;
            x_engine = Hom.Eval.engine_tag eval;
            x_rounds = rounds;
            x_facts = facts;
            x_probes = count delta "eval.join_probes";
            x_index_ops = count delta "eval.index_ops";
            x_wall_s = t;
          })
        [ Hom.Eval.Interp; Hom.Eval.Compiled ])
    (ex17_workloads ())

let ex17_engines rows =
  header "EX-17: compiled vs interpreted join engine (index operations)";
  Fmt.pr "%-16s %-10s %-8s %-8s %-12s %-12s %-9s %s@." "workload" "engine"
    "rounds" "facts" "probes" "index ops" "time(s)" "vs interp";
  List.iter
    (fun row ->
      let ratio =
        if row.x_engine <> "compiled" then "-"
        else
          match
            List.find_opt
              (fun r ->
                r.x_workload = row.x_workload && r.x_engine = "interp")
              rows
          with
          | Some ir when row.x_index_ops > 0 && row.x_wall_s > 0. ->
              Printf.sprintf "%.1fx fewer ops, %.1fx faster"
                (float_of_int ir.x_index_ops /. float_of_int row.x_index_ops)
                (ir.x_wall_s /. row.x_wall_s)
          | _ -> "-"
      in
      Fmt.pr "%-16s %-10s %-8d %-8d %-12d %-12d %-9.3f %s@." row.x_workload
        row.x_engine row.x_rounds row.x_facts row.x_probes row.x_index_ops
        row.x_wall_s ratio)
    rows

(* Only the compiled rows gate: their probes and index ops may not grow
   by more than 10% (lower is always fine). *)
let run_ex17 () =
  let rows = ex17_measure () in
  ex17_engines rows;
  List.filter_map
    (fun r ->
      if r.x_engine <> "compiled" then None
      else
        Some
          (gate_row "EX-17" ~config:r.x_engine r.x_workload
             [ ("probes", r.x_probes); ("index_ops", r.x_index_ops) ]))
    rows

(* ------------------------------------------------------------------ *)
(* EX-16: per-entry chase telemetry from the metrics registry           *)
(* ------------------------------------------------------------------ *)

(* What the CLI's --metrics flag shows per invocation, as a table: the
   registry counter deltas around one bounded chase per zoo entry.  The
   rows double as a profile of where join work concentrates. *)
let ex16_metrics_profile () =
  header "EX-16: chase telemetry per zoo entry (registry counter deltas)";
  Fmt.pr "%-16s %-8s %-8s %-8s %-12s %s@." "entry" "rounds" "facts" "nulls"
    "probes" "outcome";
  List.iter
    (fun (e : Zoo.entry) ->
      let db = Zoo.database_instance e in
      let r, _, delta =
        measure (fun () ->
            Chase.Chase.run ?budget:!governor ~max_rounds:10
              ~max_elements:4000 e.Zoo.theory db)
      in
      let get = count delta in
      Fmt.pr "%-16s %-8d %-8d %-8d %-12d %a@." e.Zoo.name
        (get "chase.rounds") (get "chase.facts_added")
        (get "chase.nulls_invented") (get "eval.join_probes")
        Chase.Chase.pp_outcome r.Chase.Chase.outcome)
    Zoo.all

(* The observability CI smoke.  Two claims, both load-bearing for the
   instrumentation layer:

     1. semantic inertness — running the same chase with the trace
        collector installed and with tracing off yields identical results
        and identical registry counter deltas (timers excluded: they are
        wall-clock), and the traced run actually captured per-round
        events;
     2. the disabled path is cheap — a branch per instrumentation point,
        no allocation — so tracing-off wall time stays within noise of
        itself run-to-run; the on/off ratio is printed for inspection but
        only inertness fails the smoke (timing assertions flake in CI).

   The runs deliberately bypass the --fuel governor: shared fuel pools
   drain across runs and would make the comparison diverge for reasons
   that have nothing to do with tracing. *)
let obs_smoke () =
  header "obs smoke: tracing on/off inertness + disabled-path overhead";
  let failures = ref 0 in
  let run_of mode theory db () =
    match mode with
    | `Saturate -> Chase.Chase.saturate_datalog theory db
    | `Rounds k -> Chase.Chase.run ~max_rounds:k theory db
  in
  let fingerprint r =
    ( r.Chase.Chase.rounds,
      I.num_facts r.Chase.Chase.instance,
      I.num_elements r.Chase.Chase.instance,
      r.Chase.Chase.new_facts_per_round )
  in
  let observe run =
    let r, _, delta = measure run in
    (fingerprint r, delta)
  in
  Fmt.pr "%-16s %-8s %-10s %s@." "workload" "verdict" "counters"
    "round events";
  List.iter
    (fun (name, theory, db, mode) ->
      let run = run_of mode theory db in
      Obs.Trace.set_sink None;
      let fp_off, delta_off = observe run in
      let c = Obs.Trace.install_collector () in
      let fp_on, delta_on = observe run in
      Obs.Trace.set_sink None;
      let events =
        Obs.Trace.find_events (Obs.Trace.root c) "chase.round"
      in
      let ok = fp_off = fp_on && delta_off = delta_on && events <> [] in
      if not ok then incr failures;
      Fmt.pr "%-16s %-8s %-10d %d@." name
        (if ok then "inert" else "DIVERGED")
        (List.length delta_on) (List.length events))
    (ex14_workloads ());
  let tc = Logic.Parser.parse_theory "e(X,Y), e(Y,Z) -> e(X,Z)." in
  let db = Gen.chain ~len:60 () in
  let sat () = ignore (Chase.Chase.saturate_datalog tc db) in
  let best_of k f =
    let best = ref infinity in
    for _ = 1 to k do
      let t0 = Unix.gettimeofday () in
      f ();
      best := Float.min !best (Unix.gettimeofday () -. t0)
    done;
    !best
  in
  sat ();
  (* warm-up *)
  Obs.Trace.set_sink None;
  let off = best_of 5 sat in
  ignore (Obs.Trace.install_collector ());
  let on = best_of 5 sat in
  Obs.Trace.set_sink None;
  Fmt.pr "tc/chain60 saturation: disabled %.4fs, collector %.4fs (x%.2f)@."
    off on (on /. off);
  if !failures = 0 then begin
    Fmt.pr "obs smoke: tracing is semantically inert@.";
    0
  end
  else begin
    Fmt.pr "obs smoke: %d workload(s) DIVERGED under tracing@." !failures;
    1
  end

(* EX-15: the analyzer over the zoo (diagnostic counts per entry) and the
   acyclicity pre-flight's verdict upgrades.  Every entry runs twice
   under a starvation fuel budget (every counter at 2): once with the
   pre-flight ablated, once with it on.  An entry "promotes" when the
   ablated run is Unknown and the pre-flight run is definite. *)
let ex15_analysis () =
  header "EX-15: theory analyzer + acyclicity pre-flight upgrades";
  Fmt.pr "%-16s %-30s %-8s %-14s %-14s %s@." "entry" "lint" "acyclic"
    "no-preflight" "preflight" "promoted";
  let starved () =
    Budget.v ~rounds:2 ~elements:2 ~facts:2 ~rewrite_steps:2 ~refine_steps:2
      ~nodes:2 ()
  in
  let outcome preflight (e : Zoo.entry) =
    let params =
      { Finitemodel.Pipeline.default_params with
        budget = Some (starved ());
        preflight;
      }
    in
    match
      Finitemodel.Pipeline.construct ~params e.Zoo.theory
        (Zoo.database_instance e) e.Zoo.query
    with
    | Finitemodel.Pipeline.Model (cert, _) ->
        ( Printf.sprintf "model(%d)"
            (I.num_elements cert.Finitemodel.Certificate.model),
          true )
    | Finitemodel.Pipeline.Query_entailed d ->
        (Printf.sprintf "certain@%d" d, true)
    | Finitemodel.Pipeline.Unknown _ -> ("unknown", false)
  in
  let promoted = ref 0 in
  List.iter
    (fun (e : Zoo.entry) ->
      let program =
        { Logic.Parser.rules = Logic.Theory.rules e.Zoo.theory;
          facts = e.Zoo.database;
          queries = [ e.Zoo.query ];
        }
      in
      let ds = Analysis.Analyzer.analyze_program program in
      let acyclic =
        not (Analysis.Analyzer.has_code Analysis.Analyzer.Codes.wa_cycle ds)
        || not (Analysis.Analyzer.has_code Analysis.Analyzer.Codes.ja_cycle ds)
      in
      let without, def0 = outcome false e in
      let with_, def1 = outcome true e in
      let p = def1 && not def0 in
      if p then incr promoted;
      Fmt.pr "%-16s %-30s %-8b %-14s %-14s %b@." e.Zoo.name
        (Fmt.str "%a" Analysis.Diagnostic.pp_counts
           (Analysis.Diagnostic.count ds))
        acyclic without with_ p)
    Zoo.all;
  Fmt.pr "promoted to definite by the pre-flight: %d@." !promoted

(* ------------------------------------------------------------------ *)
(* EX-18: the serve load harness.  A [bddfc serve]-equivalent server is
   forked onto a Unix-domain socket (the library entry point, same code
   path as the CLI) and driven closed-loop:

     cold_judge      evict before every judge: per-request rebuild +
                     recompute, the batch-tool cost profile
     warm_judge      the same judge against the resident session:
                     memoized verdict, the serving cost profile
     warm_mixed      4 concurrent judge/cert/query streams, one
                     outstanding request each
     overload_burst  64 requests in one write against max_inflight=8:
                     the shed requests must answer [overloaded]
     faulted         120 requests against a seed-7 fault stream: every
                     line must get a structured reply, then the child
                     must still drain and exit 0

   The robustness claims gated on every run: both children exit 0,
   every request gets exactly one reply, clean phases have zero errors,
   the burst sheds, and warm p50 is at least 5x better than cold p50.
   The counter gate pins the request and error counts exactly: the
   counts fix the schedule, the errors the seeded fault stream.
   Latency numbers are wall clock and only reported. *)

type ex18_phase = {
  p_name : string;
  p_requests : int;
  p_errors : int;
  p_overloaded : int;
  p_p50_us : float;
  p_p99_us : float;
}

module Sj = Obs.Json

let ex18_program =
  "e(X,Y) -> e(Y,X). e(X,Y), e(Y,Z) -> p(X,Z). p(X,Y) -> exists W. m(X,W). \
   e(a,b). e(b,c). e(c,d). e(d,f). e(f,g)."

let ex18_load_line =
  Printf.sprintf {|{"id":0,"op":"load","session":"w","program":%S}|}
    ex18_program

let ex18_judge_line =
  {|{"id":1,"op":"judge","session":"w","query":"? m(a,a)."}|}

let ex18_cert_line =
  {|{"id":2,"op":"cert","session":"w","query":"? m(X,X)."}|}

let ex18_query_line =
  {|{"id":3,"op":"query","session":"w","query":"? p(a,c)."}|}

let ex18_evict_line = {|{"id":4,"op":"evict","session":"w"}|}
let ex18_ping_line = {|{"id":5,"op":"ping"}|}

type ex18_conn = { c_fd : Unix.file_descr; c_rbuf : Buffer.t }

let ex18_fork_server ~path config =
  match Unix.fork () with
  | 0 ->
      let code =
        try
          let t = Serve.Server.create ~config () in
          Serve.Server.serve_socket t ~path;
          0
        with _ -> 9
      in
      Unix._exit code
  | pid -> pid

let ex18_connect path =
  let deadline = Unix.gettimeofday () +. 10. in
  let rec go () =
    let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
    match Unix.connect fd (Unix.ADDR_UNIX path) with
    | () -> { c_fd = fd; c_rbuf = Buffer.create 256 }
    | exception Unix.Unix_error ((Unix.ENOENT | Unix.ECONNREFUSED), _, _)
      when Unix.gettimeofday () < deadline ->
        Unix.close fd;
        ignore (Unix.select [] [] [] 0.02);
        go ()
  in
  go ()

let ex18_send c line =
  let data = line ^ "\n" in
  let len = String.length data in
  let rec go off =
    if off < len then go (off + Unix.write_substring c.c_fd data off (len - off))
  in
  go 0

let ex18_recv =
  let chunk = Bytes.create 4096 in
  fun c ->
    let rec take () =
      let data = Buffer.contents c.c_rbuf in
      match String.index_opt data '\n' with
      | Some i ->
          Buffer.clear c.c_rbuf;
          Buffer.add_string c.c_rbuf
            (String.sub data (i + 1) (String.length data - i - 1));
          String.sub data 0 i
      | None ->
          let n = Unix.read c.c_fd chunk 0 (Bytes.length chunk) in
          if n = 0 then failwith "ex18: server closed the connection";
          Buffer.add_subbytes c.c_rbuf chunk 0 n;
          take ()
    in
    take ()

(* send + wait for the one reply: closed-loop latency in microseconds *)
let ex18_rpc c line =
  let t0 = Unix.gettimeofday () in
  ex18_send c line;
  let reply = ex18_recv c in
  (reply, (Unix.gettimeofday () -. t0) *. 1e6)

let ex18_ok reply =
  match Sj.parse reply with
  | Ok j -> ( match Sj.member "ok" j with Some (Sj.B b) -> b | _ -> false)
  | Error _ -> false

let ex18_error_code reply =
  match Sj.parse reply with
  | Ok j -> ( match Sj.member "error" j with Some (Sj.S s) -> Some s | _ -> None)
  | Error _ -> None

(* a faulted shutdown may trip at admission before the stop flag is
   set; retry until the server acknowledges the drain *)
let ex18_shutdown c =
  let rec go n =
    if n > 0 then
      let reply, _ = ex18_rpc c {|{"id":9,"op":"shutdown"}|} in
      if not (ex18_ok reply) then go (n - 1)
  in
  go 20

let ex18_wait pid =
  let deadline = Unix.gettimeofday () +. 15. in
  let rec go () =
    match Unix.waitpid [ Unix.WNOHANG ] pid with
    | 0, _ ->
        if Unix.gettimeofday () > deadline then begin
          Unix.kill pid Sys.sigkill;
          ignore (Unix.waitpid [] pid);
          -1
        end
        else begin
          ignore (Unix.select [] [] [] 0.02);
          go ()
        end
    | _, Unix.WEXITED c -> c
    | _, _ -> -1
  in
  go ()

let ex18_pct samples p =
  match samples with
  | [] -> 0.
  | _ ->
      let a = Array.of_list samples in
      Array.sort compare a;
      let n = Array.length a in
      a.(min (n - 1) (int_of_float (p *. float_of_int n)))

let ex18_phase name latencies ~requests ~errors ~overloaded =
  { p_name = name; p_requests = requests; p_errors = errors; p_overloaded = overloaded;
    p_p50_us = ex18_pct latencies 0.5; p_p99_us = ex18_pct latencies 0.99 }

type ex18_result = {
  r_phases : ex18_phase list;
  r_speedup : float;
  r_clean_exit : int;
  r_fault_exit : int;
}

let ex18_measure_serve () =
  header "EX-18: serve load harness (warm sessions, overload, faults)";
  let tmp = Filename.get_temp_dir_name () in
  let sock suffix =
    Filename.concat tmp (Printf.sprintf "bddfc_ex18_%d_%s" (Unix.getpid ()) suffix)
  in
  (* ------------------------- the clean server -------------------- *)
  let clean_sock = sock "clean.sock" in
  let clean_pid =
    ex18_fork_server ~path:clean_sock
      { Serve.Server.default_config with max_inflight = 8 }
  in
  let c = ex18_connect clean_sock in
  let setup_errors = ref 0 in
  let expect_ok what reply =
    if not (ex18_ok reply) then begin
      incr setup_errors;
      Fmt.pr "ex18: %s failed: %s@." what reply
    end
  in
  expect_ok "load" (fst (ex18_rpc c ex18_load_line));
  (* cold: evict first, so every judge pays parse+analyze+compute *)
  let cold = ref [] and cold_err = ref 0 in
  let n_cold = 30 in
  for _ = 1 to n_cold do
    ignore (ex18_rpc c ex18_evict_line);
    let reply, us = ex18_rpc c ex18_judge_line in
    if ex18_ok reply then cold := us :: !cold else incr cold_err
  done;
  (* warm: one priming judge rebuilds the session, then the memoized
     steady state *)
  expect_ok "prime" (fst (ex18_rpc c ex18_judge_line));
  let warm = ref [] and warm_err = ref 0 in
  let n_warm = 200 in
  for _ = 1 to n_warm do
    let reply, us = ex18_rpc c ex18_judge_line in
    if ex18_ok reply then warm := us :: !warm else incr warm_err
  done;
  (* mixed: 4 streams, one outstanding judge/cert/query each *)
  let streams = Array.init 4 (fun _ -> ex18_connect clean_sock) in
  let stream_line i =
    match i mod 3 with
    | 0 -> ex18_judge_line
    | 1 -> ex18_cert_line
    | _ -> ex18_query_line
  in
  let mixed = ref [] and mixed_err = ref 0 in
  let n_rounds = 25 in
  for _ = 1 to n_rounds do
    let t0 = Array.map (fun _ -> 0.) streams in
    Array.iteri
      (fun i s ->
        t0.(i) <- Unix.gettimeofday ();
        ex18_send s (stream_line i))
      streams;
    Array.iteri
      (fun i s ->
        let reply = ex18_recv s in
        let us = (Unix.gettimeofday () -. t0.(i)) *. 1e6 in
        if ex18_ok reply then mixed := us :: !mixed else incr mixed_err)
      streams
  done;
  (* overload: 64 pings in one write against max_inflight=8; the shed
     majority must answer [overloaded] immediately, never queue *)
  let bc = ex18_connect clean_sock in
  let n_burst = 64 in
  let burst = Buffer.create 2048 in
  for _ = 1 to n_burst do
    Buffer.add_string burst ex18_ping_line;
    Buffer.add_char burst '\n'
  done;
  ex18_send bc (String.sub (Buffer.contents burst) 0 (Buffer.length burst - 1));
  let shed = ref 0 and burst_err = ref 0 in
  for _ = 1 to n_burst do
    let reply = ex18_recv bc in
    match ex18_error_code reply with
    | Some "overloaded" -> incr shed
    | Some _ -> incr burst_err
    | None -> ()
  done;
  ex18_shutdown c;
  let clean_exit = ex18_wait clean_pid in
  Array.iter (fun s -> Unix.close s.c_fd) streams;
  Unix.close bc.c_fd;
  Unix.close c.c_fd;
  (* ------------------------ the faulted server ------------------- *)
  let fault_sock = sock "fault.sock" in
  let fault_pid =
    ex18_fork_server ~path:fault_sock
      { Serve.Server.default_config with
        faults = Some (Serve.Faults.seeded ~seed:7) }
  in
  let fc = ex18_connect fault_sock in
  let f_req = ref 0 and f_err = ref 0 and f_lat = ref [] in
  let f_send line =
    incr f_req;
    let reply, us = ex18_rpc fc line in
    f_lat := us :: !f_lat;
    if not (ex18_ok reply) then begin
      incr f_err;
      (* even a faulted reply must be structured: parseable with a
         machine-readable error code *)
      if ex18_error_code reply = None then incr setup_errors
    end;
    ex18_ok reply
  in
  let rec f_load n = if not (f_send ex18_load_line) && n > 0 then f_load (n - 1) in
  f_load 10;
  for i = 1 to 120 do
    ignore
      (f_send
         (match i mod 4 with
         | 0 -> ex18_ping_line
         | 1 -> ex18_judge_line
         | 2 -> ex18_query_line
         | _ -> ex18_cert_line))
  done;
  ex18_shutdown fc;
  let fault_exit = ex18_wait fault_pid in
  Unix.close fc.c_fd;
  (* --------------------------- the table ------------------------- *)
  let phases =
    [ ex18_phase "cold_judge" !cold ~requests:n_cold ~errors:!cold_err
        ~overloaded:0;
      ex18_phase "warm_judge" !warm ~requests:n_warm ~errors:!warm_err
        ~overloaded:0;
      ex18_phase "warm_mixed" !mixed ~requests:(4 * n_rounds)
        ~errors:!mixed_err ~overloaded:0;
      ex18_phase "overload_burst" [] ~requests:n_burst ~errors:!burst_err
        ~overloaded:!shed;
      ex18_phase "faulted" !f_lat ~requests:!f_req ~errors:!f_err
        ~overloaded:0 ]
  in
  let p50 name =
    (List.find (fun p -> p.p_name = name) phases).p_p50_us
  in
  let speedup =
    let w = p50 "warm_judge" in
    if w > 0. then p50 "cold_judge" /. w else 0.
  in
  Fmt.pr "%-16s %9s %7s %11s %10s %10s@." "phase" "requests" "errors"
    "overloaded" "p50(us)" "p99(us)";
  List.iter
    (fun p ->
      Fmt.pr "%-16s %9d %7d %11d %10.1f %10.1f@." p.p_name p.p_requests
        p.p_errors p.p_overloaded p.p_p50_us p.p_p99_us)
    phases;
  Fmt.pr "warm/cold speedup (p50): %.1fx@." speedup;
  Fmt.pr "server exits: clean %d, faulted %d; setup errors: %d@." clean_exit
    fault_exit !setup_errors;
  ( { r_phases = phases; r_speedup = speedup; r_clean_exit = clean_exit;
      r_fault_exit = fault_exit },
    !setup_errors )

(* The robustness invariants that must hold on every run. *)
let ex18_structural r setup_errors =
  let fail fmt = gate_fail "EX-18" fmt in
  if setup_errors > 0 then fail "%d setup failures" setup_errors;
  if r.r_clean_exit <> 0 then
    fail "clean server exited %d (want 0)" r.r_clean_exit;
  if r.r_fault_exit <> 0 then
    fail "faulted server exited %d (want 0)" r.r_fault_exit;
  if r.r_speedup < 5. then
    fail "warm p50 only %.1fx better than cold (want >= 5x)" r.r_speedup;
  List.iter
    (fun p ->
      match p.p_name with
      | "overload_burst" ->
          if p.p_overloaded = 0 then fail "the burst shed nothing";
          if p.p_errors > 0 then
            fail "burst produced %d non-overload errors" p.p_errors
      | "faulted" ->
          if p.p_errors = 0 then fail "the seeded fault stream faulted nothing"
      | _ ->
          if p.p_errors > 0 then
            fail "clean phase %s had %d errors" p.p_name p.p_errors)
    r.r_phases

(* The burst's split depends on kernel chunking: its error count is
   gated structurally above, not against the blob. *)
let run_ex18 () =
  let r, setup_errors = ex18_measure_serve () in
  ex18_structural r setup_errors;
  List.map
    (fun p ->
      gate_row "EX-18" p.p_name
        (("requests", p.p_requests)
        :: (if p.p_name = "overload_burst" then []
            else [ ("errors", p.p_errors) ])))
    r.r_phases

(* ------------------------------------------------------------------ *)
(* EX-20: query-directed rule slicing                                   *)
(* ------------------------------------------------------------------ *)

(* The slicer's two claims, in one table:

     1. soundness — on every workload the sliced certain-answer verdict
        (entailment depth included) is identical to the unsliced one;
     2. payoff — when the theory carries rules irrelevant to the query,
        the sliced chase does measurably less join work.

   The padded workloads compose a queried component with an independent
   same-shape component the query never touches; the slicer provably
   drops the padding, and the join-probe counter (deterministic, unlike
   wall time) records the saving.  Verdict identity gates on every row;
   the >= 1.5x probe reduction gates only on the rows built to show it
   (a zoo theory sliced against its own query is context, not a claim).
   The counter gate fails on a >10% probe regression against the
   committed blob and on any change of verdict. *)

type ex20_row = {
  s_workload : string;
  s_rules : int;
  s_kept : int;
  s_gate_ratio : bool; (* this row carries the >= 1.5x claim *)
  s_verdict_full : string;
  s_verdict_sliced : string;
  s_probes_full : int;
  s_probes_sliced : int;
  s_wall_full_s : float;
  s_wall_sliced_s : float;
}

let ex20_certainty_str = function
  | Chase.Chase.Entailed k -> Printf.sprintf "entailed:%d" k
  | Chase.Chase.Not_entailed -> "not-entailed"
  | Chase.Chase.Unknown (r, k) ->
      Printf.sprintf "unknown:%s:%d" (Budget.resource_name r) k

(* A deterministic chain over [pred] plus a denser deterministic
   digraph over [pad]: the queried half closes in ~log n rounds, the
   padding half is where the probes go when the slicer is off. *)
let ex20_db () =
  let b = Buffer.create 1024 in
  for i = 0 to 23 do
    Buffer.add_string b (Printf.sprintf "e(n%d,n%d). " i (i + 1))
  done;
  for i = 0 to 39 do
    Buffer.add_string b (Printf.sprintf "f(m%d,m%d). " i ((i * 7 + 1) mod 40));
    Buffer.add_string b (Printf.sprintf "f(m%d,m%d). " i ((i * 11 + 3) mod 40));
    Buffer.add_string b (Printf.sprintf "f(m%d,m%d). " i ((i * 13 + 5) mod 40))
  done;
  I.of_atoms (Logic.Parser.parse_atoms (Buffer.contents b))

let ex20_workloads () =
  let tc_padded =
    Logic.Parser.parse_theory
      "e(X,Y), e(Y,Z) -> e(X,Z). f(U,V), f(V,W) -> f(U,W)."
  in
  let gen_padded =
    Logic.Parser.parse_theory
      {| e(X,Y) -> exists Z. e(Y,Z).
         e(X,Y), e(Y,Z) -> p(X,Z).
         f(U,V) -> exists W. f(V,W).
         f(U,V), f(V,W) -> q(U,W). |}
  in
  let db = ex20_db () in
  let zoo = Option.get (Zoo.find "weakly_acyclic") in
  [ ("tc+tc-pad", tc_padded, db,
     Logic.Parser.parse_query "? e(n0,n24).", 12, true);
    ("gen+gen-pad", gen_padded, db,
     Logic.Parser.parse_query "? p(X,Z).", 10, true);
    ("zoo/weakly_acyclic", zoo.Zoo.theory, Zoo.database_instance zoo,
     zoo.Zoo.query, 12, false);
  ]

let ex20_measure () =
  List.map
    (fun (name, theory, db, q, max_rounds, gate) ->
      let probes f =
        let v, t, delta = measure f in
        (v, t, count delta "eval.join_probes")
      in
      let vf, tf, pf =
        probes (fun () ->
            Chase.Chase.certain ~max_rounds ~max_elements:100_000 theory db q)
      in
      let vs, ts, ps =
        probes (fun () ->
            Analysis.Dataflow.certain ~max_rounds ~max_elements:100_000
              theory db q)
      in
      let sl = Analysis.Dataflow.slice theory (Logic.Ucq.of_cq q) in
      { s_workload = name;
        s_rules = Logic.Theory.size theory;
        s_kept = List.length sl.Analysis.Dataflow.kept;
        s_gate_ratio = gate;
        s_verdict_full = ex20_certainty_str vf;
        s_verdict_sliced = ex20_certainty_str vs;
        s_probes_full = pf;
        s_probes_sliced = ps;
        s_wall_full_s = tf;
        s_wall_sliced_s = ts;
      })
    (ex20_workloads ())

let ex20_ratio row =
  if row.s_probes_sliced > 0 then
    float_of_int row.s_probes_full /. float_of_int row.s_probes_sliced
  else Float.infinity

let ex20_table rows =
  header "EX-20: query-directed rule slicing (soundness + probe savings)";
  Fmt.pr "%-20s %-7s %-13s %-12s %-12s %-7s %-9s %s@." "workload" "kept"
    "verdict" "probes" "probes/sl" "ratio" "full(s)" "sliced(s)";
  List.iter
    (fun row ->
      Fmt.pr "%-20s %d/%-5d %-13s %-12d %-12d %-7.2f %-9.3f %.3f@."
        row.s_workload row.s_kept row.s_rules row.s_verdict_sliced
        row.s_probes_full row.s_probes_sliced (ex20_ratio row)
        row.s_wall_full_s row.s_wall_sliced_s)
    rows

let ex20_structural rows =
  let fail fmt = gate_fail "EX-20" fmt in
  List.iter
    (fun row ->
      if row.s_verdict_full <> row.s_verdict_sliced then
        fail "%s verdicts diverge (%s vs %s)" row.s_workload row.s_verdict_full
          row.s_verdict_sliced;
      if row.s_gate_ratio then begin
        if row.s_kept >= row.s_rules then
          fail "%s slice dropped nothing" row.s_workload;
        if ex20_ratio row < 1.5 then
          fail "%s probe reduction only %.2fx (want >= 1.5x)" row.s_workload
            (ex20_ratio row)
      end)
    rows

(* The whole-zoo report smoke: every entry's dataflow report must build
   without an exception, its JSON must survive a parse round-trip, and
   the text and DOT renderings must be non-empty. *)
let analyze_smoke () =
  header "analyze smoke: Dataflow.report over the whole zoo";
  List.iter
    (fun (e : Zoo.entry) ->
      match
        let db = Zoo.database_instance e in
        let r =
          Analysis.Dataflow.report ~facts:(I.preds db)
            ~queries:[ e.Zoo.query ] e.Zoo.theory
        in
        let json = Obs.Json.to_string (Analysis.Dataflow.report_json r) in
        (match Obs.Json.parse json with
        | Ok _ -> ()
        | Error m -> failwith ("JSON does not re-parse: " ^ m));
        if Fmt.str "%a" Analysis.Dataflow.pp_report r = "" then
          failwith "empty text report";
        if Analysis.Dataflow.report_dot r = "" then failwith "empty dot"
      with
      | () -> Fmt.pr "  %-22s ok@." e.Zoo.name
      | exception ex ->
          gate_fail "EX-20" "dataflow report of %s failed: %s" e.Zoo.name
            (Printexc.to_string ex))
    Zoo.all

let run_ex20 () =
  analyze_smoke ();
  let rows = ex20_measure () in
  ex20_table rows;
  ex20_structural rows;
  List.map
    (fun row ->
      gate_row "EX-20" row.s_workload ~verdict:row.s_verdict_sliced
        [ ("probes_full", row.s_probes_full);
          ("probes_sliced", row.s_probes_sliced) ])
    rows

(* ------------------------------------------------------------------- *)
(* EX-21: prepared containment                                         *)
(* ------------------------------------------------------------------- *)

(* Each workload runs once, on the one containment path: prepared
   queries, the signature index, and the int-coded matcher.  The
   registry deltas show how its containment pairs split into index
   rejects and searches; those counters and the verdict strings are
   gated, the wall time is reported. *)

type ex21_row = {
  h_workload : string;
  h_verdict : string;
  h_index_rejects : int;
  h_searches : int;
  h_wall_s : float;
}

let ex21_params () =
  {
    Finitemodel.Pipeline.default_params with
    Finitemodel.Pipeline.n_schedule = [ 1; 2; 3 ];
    budget = !governor;
  }

let ex21_pipeline_sig = function
  | Finitemodel.Pipeline.Query_entailed d -> Printf.sprintf "certain:%d" d
  | Finitemodel.Pipeline.Model (cert, stats) ->
      Printf.sprintf "model:%d:n%s"
        (I.num_elements cert.Finitemodel.Certificate.model)
        (match stats.Finitemodel.Pipeline.n_used with
        | Some n -> string_of_int n
        | None -> "-")
  | Finitemodel.Pipeline.Unknown _ -> "unknown"

let ex21_judge_sig (v : Finitemodel.Judge.verdict) =
  match v.Finitemodel.Judge.evidence with
  | Finitemodel.Judge.Certain d -> Printf.sprintf "certain:%d" d
  | Finitemodel.Judge.Witness (cert, _) ->
      Printf.sprintf "model:%d"
        (I.num_elements cert.Finitemodel.Certificate.model)
  | Finitemodel.Judge.No_small_model { max_extra; _ } ->
      Printf.sprintf "nosmall:%d" max_extra
  | Finitemodel.Judge.Open _ -> "open"

(* (name, verdict-producing run) *)
let ex21_workloads () =
  let tc_sym =
    Logic.Parser.parse_theory "e(X,Y) -> e(Y,X). e(X,Y), e(Y,Z) -> e(X,Z)."
  in
  let tc_query = Logic.Parser.parse_query "? e(X,Y)." in
  let ex1 = Option.get (Zoo.find "ex1") in
  let ex7 = Option.get (Zoo.find "ex7") in
  let remark3 = Option.get (Zoo.find "remark3") in
  let sec55 = Option.get (Zoo.find "sec55") in
  let sec55_normalized =
    (Finitemodel.Normalize.spade5
       (Finitemodel.Normalize.hide_query sec55.Zoo.theory sec55.Zoo.query)
         .Finitemodel.Normalize.theory)
      .Finitemodel.Normalize.theory
  in
  let redundant_path =
    (* a 12-edge path with shadow detours that all fold onto it: every
       minimize pass searches for the 20-atom query once per atom *)
    let e i j = Logic.Atom.app "e" [ Logic.Term.var i; Logic.Term.var j ] in
    let x i = "x" ^ string_of_int i in
    let chain = List.init 12 (fun i -> e (x i) (x (i + 1))) in
    let shadows =
      List.concat_map
        (fun i ->
          let w = "w" ^ string_of_int i in
          [ e (x i) w; e w (x (i + 2)) ])
        [ 0; 2; 4; 6 ]
    in
    Logic.Cq.make ~answer:[ x 0 ] (chain @ shadows)
  in
  [ ( "minimize-x40/path12",
      fun () ->
        (* the same large query minimized over and over: every pass does
           one large-query homomorphism search per atom *)
        let last = ref "" in
        for _ = 1 to 40 do
          last :=
            Printf.sprintf "min:%d"
              (Logic.Cq.num_atoms
                 Hom.Containment.(query (minimize (prepare redundant_path))))
        done;
        !last );
    ( "rewrite-x3/tc-sym",
      fun () ->
        (* the saturating rewriting: every kept disjunct is subsumption-
           checked against every candidate, and the whole loop repeats
           three times *)
        let last = ref "" in
        for _ = 1 to 3 do
          let r =
            Rewriting.Rewrite.rewrite ?budget:!governor ~max_disjuncts:80
              ~max_steps:800 tc_sym tc_query
          in
          last :=
            Printf.sprintf "ucq:%d:%s" (List.length r.Rewriting.Rewrite.ucq)
              (if r.Rewriting.Rewrite.complete then "complete" else "capped")
        done;
        !last );
    ( "kappa-x5/remark3",
      fun () ->
        (* the second body's rewriting diverges: most of its candidates
           meet the kept set and are subsumed there *)
        let last = ref "" in
        for _ = 1 to 5 do
          let k =
            Rewriting.Rewrite.kappa ?budget:!governor ~max_disjuncts:60
              ~max_steps:600 remark3.Zoo.theory
          in
          last :=
            Printf.sprintf "kappa:%d:%s" k.Rewriting.Rewrite.kappa
              (if k.Rewriting.Rewrite.all_complete then "complete"
               else "incomplete")
        done;
        !last );
    ( "judge-x3/ex1",
      fun () ->
        let budget =
          {
            Finitemodel.Judge.default_budget with
            Finitemodel.Judge.pipeline_params = ex21_params ();
          }
        in
        let last = ref "" in
        for _ = 1 to 3 do
          last :=
            ex21_judge_sig
              (Finitemodel.Judge.judge ~budget ex1.Zoo.theory
                 (Zoo.database_instance ex1) ex1.Zoo.query)
        done;
        !last );
    ( "kappa/sec55-normalized",
      fun () ->
        (* the kept-set scans of the judge-zoo bottleneck at the
           pipeline's caps: the signature index settles most pairs *)
        let params = ex21_params () in
        let k =
          Rewriting.Rewrite.kappa ?budget:!governor
            ~max_disjuncts:params.Finitemodel.Pipeline.rewrite_max_disjuncts
            ~max_steps:params.Finitemodel.Pipeline.rewrite_max_steps
            sec55_normalized
        in
        Printf.sprintf "kappa:%d:%s" k.Rewriting.Rewrite.kappa
          (if k.Rewriting.Rewrite.all_complete then "complete"
           else "incomplete") );
    ( "pipeline-x2/ex7",
      fun () ->
        let params = ex21_params () in
        let last = ref "" in
        for _ = 1 to 2 do
          last :=
            ex21_pipeline_sig
              (Finitemodel.Pipeline.construct ~params ex7.Zoo.theory
                 (Zoo.database_instance ex7) ex7.Zoo.query)
        done;
        !last );
  ]

let ex21_measure () =
  List.map
    (fun (name, run) ->
      let v, t, delta = measure run in
      let d = count delta in
      {
        h_workload = name;
        h_verdict = v;
        h_index_rejects = d "containment.index_rejects";
        h_searches = d "containment.searches";
        h_wall_s = t;
      })
    (ex21_workloads ())

let ex21_table rows =
  header "EX-21: prepared containment";
  Fmt.pr "%-24s %-22s %-8s %-8s %s@." "workload" "verdict" "rejects"
    "searches" "wall(s)";
  List.iter
    (fun row ->
      Fmt.pr "%-24s %-22s %-8d %-8d %.3f@." row.h_workload row.h_verdict
        row.h_index_rejects row.h_searches row.h_wall_s)
    rows

let ex21_structural rows =
  List.iter
    (fun row ->
      if row.h_index_rejects + row.h_searches = 0 then
        gate_fail "EX-21" "%s tested no containment pair" row.h_workload)
    rows

let run_ex21 () =
  let rows = ex21_measure () in
  ex21_table rows;
  ex21_structural rows;
  List.map
    (fun row ->
      gate_row "EX-21" row.h_workload ~verdict:row.h_verdict
        [ ("index_rejects", row.h_index_rejects);
          ("searches", row.h_searches) ])
    rows

(* ------------------------------------------------------------------ *)
(* EX-22: incremental chase maintenance under churn                     *)
(* ------------------------------------------------------------------ *)

(* The maintenance claim, in one table: on a stream of small update
   batches against a saturated instance, Maintain.apply (delta
   resumption for asserts, DRed delete/rederive for retracts) beats
   re-chasing the updated database from scratch by >= 5x wall time, and
   the maintained instance is bit-identical to the re-chase after every
   batch.  Both workloads are datalog, so "bit-identical" needs no null
   renaming: the element ids are the shared constants.

   The two arms run interleaved in one process — batch k is maintained,
   then re-chased, then compared — so the wall ratio is fair and the
   differential check is per-batch, not just final. *)

type ex22_row = {
  c_workload : string;
  c_batches : int;
  c_facts : int; (* final closure size, maintained arm *)
  c_deleted : int;
  c_rederived : int;
  c_inserted : int;
  c_bailouts : int;
  c_probes_maint : int;
  c_probes_rechase : int;
  c_wall_maint_s : float;
  c_wall_rechase_s : float;
  c_verified : bool; (* bit-identical to the re-chase after every batch *)
  c_reconciled : bool; (* stats vs instance-size bookkeeping, every batch *)
}

let ex22_speedup row =
  if row.c_wall_maint_s > 0. then row.c_wall_rechase_s /. row.c_wall_maint_s
  else 0.

(* Transitive closure over a sparse digraph (deep closure, long
   re-chase) and a wide-body diamond closure (expensive joins per
   round).  60 nodes keeps the closure in the thousands of facts, where
   a 1-3 fact batch is genuinely "small churn". *)
let ex22_workloads () =
  let tc = Logic.Parser.parse_theory "e(X,Y), e(Y,Z) -> e(X,Z)." in
  let diamond =
    Logic.Parser.parse_theory
      "e(X,Y), e(X,Z), e(Y,W), e(Z,W) -> d(X,W). d(X,Y), d(Y,Z) -> d(X,Z)."
  in
  [ ("tc/digraph", tc, Gen.random_digraph ~nodes:60 ~edges:90 ~seed:7 (), 60);
    ("diamond", diamond, Gen.random_digraph ~nodes:60 ~edges:180 ~seed:5 (),
     60);
  ]

let ex22_n_batches = 12

(* A deterministic churn stream: every batch asserts two random edges
   between existing nodes; two of every three batches also retract one
   distinct original base edge (the third is insert-only, the pure
   semi-naive fast path). *)
let ex22_batches ~nodes base_atoms =
  let rng = Random.State.make [| 22; nodes |] in
  let base = Array.of_list base_atoms in
  let edge () =
    let v () =
      Logic.Term.cst ("v" ^ string_of_int (Random.State.int rng nodes))
    in
    Logic.Atom.app "e" [ v (); v () ]
  in
  let next_retract = ref 0 in
  List.init ex22_n_batches (fun i ->
      let insert = [ edge (); edge () ] in
      let retract =
        if i mod 3 = 2 || !next_retract >= Array.length base then []
        else begin
          let a = base.(!next_retract) in
          next_retract := !next_retract + 7 (* stride: spread deletions *);
          [ a ]
        end
      in
      (insert, retract))

let ex22_measure () =
  List.map
    (fun (name, theory, base_db, nodes) ->
      let batches = ex22_batches ~nodes (I.to_atoms base_db) in
      let db_m = I.copy base_db and db_r = I.copy base_db in
      let state = ref (Chase.Maintain.saturate ?budget:!governor theory db_m) in
      let deleted = ref 0 and rederived = ref 0 and inserted = ref 0 in
      let bailouts = ref 0 in
      let probes_m = ref 0 and probes_r = ref 0 in
      let wall_m = ref 0. and wall_r = ref 0. in
      let verified = ref true and reconciled = ref true in
      List.iter
        (fun (insert, retract) ->
          let n_before = I.num_facts !state.Chase.Maintain.inst in
          let (st, stats), t, delta =
            measure (fun () ->
                ignore (Chase.Maintain.update_db db_m ~insert ~retract);
                Chase.Maintain.apply ?budget:!governor theory ~db:db_m !state
                  ~insert ~retract)
          in
          state := st;
          wall_m := !wall_m +. t;
          probes_m := !probes_m + count delta "eval.join_probes";
          deleted := !deleted + stats.Chase.Maintain.deleted;
          rederived := !rederived + stats.Chase.Maintain.rederived;
          inserted := !inserted + stats.Chase.Maintain.inserted;
          if stats.Chase.Maintain.bailed_out then incr bailouts
          else if
            I.num_facts st.Chase.Maintain.inst
            <> n_before - stats.Chase.Maintain.deleted
               + stats.Chase.Maintain.rederived + stats.Chase.Maintain.inserted
          then reconciled := false;
          let r, t, delta =
            measure (fun () ->
                ignore (Chase.Maintain.update_db db_r ~insert ~retract);
                Chase.Chase.run ?budget:!governor theory db_r)
          in
          wall_r := !wall_r +. t;
          probes_r := !probes_r + count delta "eval.join_probes";
          if not (I.equal_facts st.Chase.Maintain.inst r.Chase.Chase.instance)
          then verified := false)
        batches;
      { c_workload = name;
        c_batches = List.length batches;
        c_facts = I.num_facts !state.Chase.Maintain.inst;
        c_deleted = !deleted;
        c_rederived = !rederived;
        c_inserted = !inserted;
        c_bailouts = !bailouts;
        c_probes_maint = !probes_m;
        c_probes_rechase = !probes_r;
        c_wall_maint_s = !wall_m;
        c_wall_rechase_s = !wall_r;
        c_verified = !verified;
        c_reconciled = !reconciled;
      })
    (ex22_workloads ())

let ex22_table rows =
  header "EX-22: incremental maintenance under churn (vs re-chase)";
  Fmt.pr "%-14s %-8s %-7s %-9s %-9s %-9s %-9s %-11s %-11s %-9s %-9s %s@."
    "workload" "batches" "facts" "deleted" "rederived" "inserted" "bailouts"
    "probes(m)" "probes(r)" "maint(s)" "chase(s)" "speedup";
  List.iter
    (fun row ->
      Fmt.pr
        "%-14s %-8d %-7d %-9d %-9d %-9d %-9d %-11d %-11d %-9.4f %-9.4f %.1fx@."
        row.c_workload row.c_batches row.c_facts row.c_deleted
        row.c_rederived row.c_inserted row.c_bailouts row.c_probes_maint
        row.c_probes_rechase row.c_wall_maint_s row.c_wall_rechase_s
        (ex22_speedup row))
    rows

(* Unconditional gates: per-batch bit-identity with the re-chase and
   stats-vs-size reconciliation.  The >= 5x speedup floor is gated only
   on machines with >= 4 cores; below that it is reported. *)
let ex22_structural rows =
  let fail fmt = gate_fail "EX-22" fmt in
  List.iter
    (fun row ->
      if not row.c_verified then
        fail "%s diverged from the re-chase" row.c_workload;
      if not row.c_reconciled then
        fail "%s stats do not reconcile with instance size" row.c_workload)
    rows;
  let cores = Domain.recommended_domain_count () in
  let best =
    List.fold_left (fun acc row -> max acc (ex22_speedup row)) 0. rows
  in
  if cores >= 4 then begin
    if best < 5. then
      fail
        "best maintained speedup only %.1fx on %d cores (want >= 5x on at \
         least one workload)"
        best cores
  end
  else
    Fmt.pr
      "EX-22: best speedup %.1fx reported only (%d core(s) — the >= 5x gate \
       needs 4)@."
      best cores

(* The verdict pins the per-batch re-chase check: a committed row must
   have been verified, and so must the live one. *)
let run_ex22 () =
  let rows = ex22_measure () in
  ex22_table rows;
  ex22_structural rows;
  List.map
    (fun row ->
      gate_row "EX-22" row.c_workload
        ~verdict:(if row.c_verified then "verified" else "diverged")
        [ ("facts", row.c_facts); ("deleted", row.c_deleted);
          ("rederived", row.c_rederived); ("inserted", row.c_inserted);
          ("probes_maintained", row.c_probes_maint) ])
    rows

let gated =
  let gate id tolerance run = { id; tolerance; run } in
  [ gate "EX-17" (At_most 0.10) run_ex17;
    gate "EX-18" Exact run_ex18;
    gate "EX-20" (At_most 0.10) run_ex20;
    gate "EX-21" (Within 0.10) run_ex21;
    gate "EX-22" (Within 0.10) run_ex22;
  ]

let () =
  parse_args ();
  if !obs_smoke_only then begin
    let code = obs_smoke () in
    write_metrics_blob ();
    exit code
  end;
  let committed =
    if !check_file = "" then None
    else
      match read_blob ~known:(List.map (fun e -> e.id) gated) !check_file with
      | Ok rows -> Some rows
      | Error msg ->
          Fmt.epr "bench gate: %s@." msg;
          exit 1
  in
  let tables = committed = None && !write_file = "" in
  let t0 = Unix.gettimeofday () in
  if tables then begin
    ex1_pipeline ();
    ex34_conservativity ();
    ex6_order ();
    ex78_saturation ();
    ex9_cycles ();
    thm2_vs_naive ();
    rewriting_kappa ();
    nonfc_evidence ();
    bounded_degree ();
    guarded_blowup ();
    encodings ();
    ablations ();
    ex14_strategies ()
  end;
  let live = List.concat_map (fun e -> e.run ()) gated in
  Option.iter (fun committed -> compare_rows gated ~committed ~live) committed;
  if !write_file <> "" then write_blob !write_file live;
  if tables then begin
    ex15_analysis ();
    ex16_metrics_profile ();
    micro ()
  end;
  write_metrics_blob ();
  Fmt.pr "@.total bench time: %.1fs@." (Unix.gettimeofday () -. t0);
  if !gate_failures > 0 then begin
    Fmt.epr "bench gate: %d violation(s)@." !gate_failures;
    exit 1
  end;
  if committed <> None then
    Fmt.pr "bench gate: %d rows of %d experiments hold against %s@."
      (List.length live) (List.length gated) !check_file
