(* Unit tests for Bddfc_analysis: the located-diagnostic analyzer, its
   witnesses, and the acyclicity pre-flight that upgrades verdicts. *)

open Bddfc_logic
open Bddfc_analysis
module D = Diagnostic
module A = Analyzer
module Budget = Bddfc_budget.Budget
module Pipeline = Bddfc_finitemodel.Pipeline
module Zoo = Bddfc_workload.Zoo

let check = Alcotest.check
let tc name f = Alcotest.test_case name `Quick f
let th src = Parser.parse_theory src
let prog src = Parser.parse_program src
let codes ds = List.map (fun d -> d.D.code) ds

let contains ~affix s =
  let n = String.length affix and m = String.length s in
  let rec go i = i + n <= m && (String.sub s i n = affix || go (i + 1)) in
  n = 0 || go 0

let witness_of code ds =
  match A.find_code code ds with Some d -> d.D.witness | None -> ""

(* ---------------- edge cases ---------------- *)

let test_empty_theory () =
  check (Alcotest.list Alcotest.string) "no diagnostics" []
    (codes (A.analyze_theory (Theory.make [])))

let test_zero_ary () =
  (* 0-ary predicates have no positions and no variables: every check
     must pass through them without an exception or a spurious report *)
  let r =
    Rule.make ~name:"r0"
      ~body:[ Atom.app "start" [] ]
      ~head:[ Atom.app "goal" [] ]
      ()
  in
  check (Alcotest.list Alcotest.string) "0-ary clean" []
    (codes (A.analyze_theory (Theory.make [ r ])))

let test_constant_in_existential_head () =
  let ds = A.analyze_theory (th "p(X) -> exists Z. r(c,Z).") in
  check Alcotest.bool "not ♠5-normalized" true
    (A.has_code A.Codes.not_normalized ds);
  check Alcotest.bool "witness names the head atom" true
    (let w = witness_of A.Codes.not_normalized ds in
     contains ~affix:"r(c, Z)" w
     || contains ~affix:"r(c,Z)" w);
  (* X occurs only in the body: also a singleton *)
  check Alcotest.bool "singleton reported" true
    (A.has_code A.Codes.singleton_var ds)

let test_body_head_disjoint () =
  (* body and head share no variables; X is erased and repeated, which
     is exactly a sticky-marking violation, and nothing crashes *)
  let ds = A.analyze_theory (th "p(X,X) -> q(c).") in
  check Alcotest.bool "not sticky" true (A.has_code A.Codes.not_sticky ds);
  check Alcotest.bool "no errors or warnings" true
    (let c = D.count ds in c.D.errors = 0 && c.D.warnings = 0)

let test_sec55_clean_but_cyclic () =
  (* the Section 5.5 non-FC theory is well-written — no hygiene findings
     — yet carries the explicit special-edge cycle witness *)
  let e = Option.get (Zoo.find "sec55") in
  let ds = A.analyze_theory e.Zoo.theory in
  let c = D.count ds in
  check Alcotest.int "0 errors" 0 c.D.errors;
  check Alcotest.int "0 warnings" 0 c.D.warnings;
  check Alcotest.bool "wa-cycle reported" true (A.has_code A.Codes.wa_cycle ds);
  check Alcotest.bool "cycle witness shows the special edge" true
    (contains ~affix:"=(" (witness_of A.Codes.wa_cycle ds));
  check Alcotest.bool "ja-cycle reported" true (A.has_code A.Codes.ja_cycle ds)

(* ---------------- hygiene checks ---------------- *)

let test_arity_mismatch () =
  let ds = A.analyze (A.of_program (prog "p(a). p(b,c).")) in
  check Alcotest.int "one error" 1 (D.count ds).D.errors;
  check Alcotest.bool "arity code" true (A.has_code A.Codes.arity_mismatch ds)

let test_edb_gating () =
  let src = "p(a). u(X) -> v(X). ? v(X)." in
  let ds = A.analyze (A.of_program (prog src)) in
  check Alcotest.bool "undefined u" true (A.has_code A.Codes.undefined_pred ds);
  check Alcotest.bool "unreachable v" true
    (A.has_code A.Codes.query_unreachable ds);
  check Alcotest.bool "unused p" true (A.has_code A.Codes.unused_pred ds);
  (* the same rules without the EDB: those three checks must not fire *)
  let ds' = A.analyze_theory (th "u(X) -> v(X).") in
  check Alcotest.bool "no EDB checks on bare theories" false
    (List.exists
       (fun c -> A.has_code c ds')
       [ A.Codes.undefined_pred; A.Codes.query_unreachable;
         A.Codes.unused_pred ])

let test_underscore_exemption () =
  let ds = A.analyze_theory (th "e(_X,Y) -> exists Z. e(Y,Z).") in
  check Alcotest.bool "no singleton for _X" false
    (A.has_code A.Codes.singleton_var ds)

(* ---------------- sticky marking trace ---------------- *)

let test_sticky_trace () =
  (* r1 erases X at p[1]; r2's head p(V,U) propagates the mark to s[2];
     r3 repeats A across the marked position: a 2-step provenance *)
  let t =
    th
      {|
        p(X,Y) -> q(Y).
        s(U,V), t(U) -> p(V,U).
        s(A,A) -> q(A).
      |}
  in
  match A.sticky_violations t with
  | [] -> Alcotest.fail "expected a sticky violation"
  | v :: _ ->
      check Alcotest.int "2-step trace" 2 (List.length v.A.trace);
      check Alcotest.bool "base case is an erasure" true
        (contains ~affix:"erases"
           (List.nth v.A.trace (List.length v.A.trace - 1)));
      check Alcotest.bool "propagation step present" true
        (contains ~affix:"through marked head position"
           (List.hd v.A.trace));
      (* the class report agrees *)
      check Alcotest.bool "report.sticky agrees" false
        (Bddfc_classes.Recognize.report t).Bddfc_classes.Recognize.sticky

(* ---------------- report consistency ---------------- *)

let test_report_matches_details () =
  (* every false field of every zoo report is witnessed by its code *)
  let open Bddfc_classes.Recognize in
  List.iter
    (fun (e : Zoo.entry) ->
      let r = report e.Zoo.theory in
      let expect field code =
        check Alcotest.bool
          (Fmt.str "%s: %s matches details" e.Zoo.name code)
          (not field)
          (A.has_code code r.details)
      in
      expect r.binary A.Codes.non_binary;
      expect r.single_head A.Codes.multi_head;
      expect r.linear A.Codes.non_linear;
      expect r.guarded A.Codes.non_guarded;
      expect r.sticky A.Codes.not_sticky;
      expect r.frontier_one A.Codes.non_frontier_one;
      expect r.weakly_acyclic A.Codes.wa_cycle;
      expect r.jointly_acyclic A.Codes.ja_cycle;
      expect r.normalized A.Codes.not_normalized)
    Zoo.all

(* ---------------- source locations ---------------- *)

let test_loc_threading () =
  let p = prog "p(a).\nq(X) -> p(X).\n" in
  (match p.Parser.facts with
  | [ f ] ->
      check Alcotest.int "fact line" 1 (Loc.line (Atom.loc f));
      check Alcotest.int "fact col" 1 (Loc.col (Atom.loc f))
  | _ -> Alcotest.fail "one fact expected");
  match p.Parser.rules with
  | [ r ] ->
      check Alcotest.int "rule line" 2 (Loc.line (Rule.loc r));
      let head = List.hd (Rule.head r) in
      check Alcotest.int "head atom line" 2 (Loc.line (Atom.loc head));
      check Alcotest.int "head atom col" 9 (Loc.col (Atom.loc head));
      (* locations are metadata: structural equality ignores them *)
      let r' = Parser.parse_rule "q(X) -> p(X)." in
      check Alcotest.bool "atom equality ignores locs" true
        (Atom.equal head (List.hd (Rule.head r')))
  | _ -> Alcotest.fail "one rule expected"

(* ---------------- rendering ---------------- *)

let test_json_escape () =
  check Alcotest.string "escapes" {|a\"b\\c\nd|}
    (D.json_escape "a\"b\\c\nd")

let test_ordering () =
  let d ~loc ~severity code =
    D.v ~loc ~code ~severity ~witness:"" "m"
  in
  let early = d ~loc:(Loc.make ~line:1 ~col:1) ~severity:D.Warning "b" in
  let err = d ~loc:(Loc.make ~line:1 ~col:1) ~severity:D.Error "z" in
  let late = d ~loc:(Loc.make ~line:9 ~col:1) ~severity:D.Error "a" in
  let nowhere = d ~loc:Loc.none ~severity:D.Error "a" in
  let sorted = List.sort D.compare [ nowhere; late; early; err ] in
  check (Alcotest.list Alcotest.string) "position-major, errors first"
    [ "z"; "b"; "a"; "a" ]
    (codes sorted);
  check Alcotest.bool "unlocated sorts last" true
    (List.nth sorted 3 == nowhere)

(* ---------------- the pre-flight upgrade ---------------- *)

let starvation_budget () =
  Budget.v ~rounds:2 ~elements:2 ~facts:2 ~rewrite_steps:2 ~refine_steps:2
    ~nodes:2 ()

let test_preflight_upgrades () =
  (* under a starvation fuel budget the weakly-acyclic entry is Unknown
     without the pre-flight and definitely decided with it *)
  let e = Option.get (Zoo.find "weakly_acyclic") in
  let db = Zoo.database_instance e in
  let run preflight =
    let params =
      { Pipeline.default_params with
        budget = Some (starvation_budget ());
        preflight;
      }
    in
    Pipeline.construct ~params e.Zoo.theory db e.Zoo.query
  in
  (match run false with
  | Pipeline.Unknown (_, st) ->
      check Alcotest.bool "fuel tripped" true (st.Pipeline.tripped <> None)
  | _ -> Alcotest.fail "expected Unknown without the pre-flight");
  match run true with
  | Pipeline.Model (cert, st) ->
      check Alcotest.bool "verified" true
        (Bddfc_finitemodel.Certificate.is_valid cert);
      check Alcotest.bool "stats record the proof" true
        st.Pipeline.preflight_terminating;
      check (Alcotest.option Alcotest.int) "the chase itself is the model"
        (Some 0) st.Pipeline.n_used
  | _ -> Alcotest.fail "expected a definite Model with the pre-flight"

let test_preflight_skips_cyclic () =
  (* a non-acyclic theory must not enter the fuel-free path *)
  let e = Option.get (Zoo.find "sec55") in
  let db = Zoo.database_instance e in
  let params =
    { Pipeline.default_params with budget = Some (starvation_budget ()) }
  in
  match Pipeline.construct ~params e.Zoo.theory db e.Zoo.query with
  | Pipeline.Unknown (_, st) ->
      check Alcotest.bool "not marked terminating" false
        st.Pipeline.preflight_terminating
  | Pipeline.Query_entailed _ -> Alcotest.fail "sec55 query is not certain"
  | Pipeline.Model _ -> Alcotest.fail "sec55 has no small countermodel"

let test_judge_chase_terminating () =
  let e = Option.get (Zoo.find "weakly_acyclic") in
  let db = Zoo.database_instance e in
  let v = Bddfc_finitemodel.Judge.judge e.Zoo.theory db e.Zoo.query in
  check Alcotest.bool "judge marks the chase terminating" true
    v.Bddfc_finitemodel.Judge.chase_terminating;
  let e' = Option.get (Zoo.find "sec55") in
  let db' = Zoo.database_instance e' in
  let v' = Bddfc_finitemodel.Judge.judge e'.Zoo.theory db' e'.Zoo.query in
  check Alcotest.bool "sec55 is not" false
    v'.Bddfc_finitemodel.Judge.chase_terminating

(* ---------------- position dataflow ---------------- *)

module Df = Dataflow
module Chase = Bddfc_chase.Chase
module Instance = Bddfc_structure.Instance

let pred = Pred.make
let pset names = Pred.Set.of_list (List.map (fun (n, a) -> pred n a) names)

let pset_str s =
  String.concat ","
    (List.sort String.compare
       (List.map Pred.name (Pred.Set.elements s)))

let test_df_graph () =
  let g = Df.build (th "p(X) -> exists Y. e(X,Y). e(_X,Y) -> q(Y).") in
  (* the null-flow closure: Y is born at e[2] and flows on to q[1] *)
  check Alcotest.bool "e[2] nullable" true (Df.nullable g (pred "e" 2, 1));
  check Alcotest.bool "q[1] nullable" true (Df.nullable g (pred "q" 1, 0));
  check Alcotest.bool "p[1] finite-range" true
    (Df.finite_range g (pred "p" 1, 0));
  check Alcotest.bool "e[1] finite-range" true
    (Df.finite_range g (pred "e" 2, 0));
  check Alcotest.int "all positions" 4 (List.length (Df.positions g));
  (* predicate edges: rule 1 contributes both a regular p -> e edge
     (the frontier X) and a special one (the existential Y); rule 2 a
     regular e -> q edge — special and regular flows stay separate *)
  (match g.Df.pred_edges with
  | [ pe_reg; pe_sp; eq ] ->
      check Alcotest.string "src" "p" (Pred.name pe_reg.Df.src);
      check Alcotest.string "dst" "e" (Pred.name pe_reg.Df.dst);
      check Alcotest.bool "p -> e frontier edge regular" false
        pe_reg.Df.special;
      check Alcotest.bool "p -> e existential edge special" true
        pe_sp.Df.special;
      check
        Alcotest.(list (triple int int string))
        "special witness: p[1] to e[2] via Y"
        [ (0, 1, "Y") ]
        pe_sp.Df.via;
      check Alcotest.bool "e -> q regular" false eq.Df.special;
      check
        Alcotest.(list (triple int int string))
        "e -> q witness: e[2] to q[1] via Y"
        [ (1, 0, "Y") ]
        eq.Df.via
  | es -> Alcotest.failf "expected 3 predicate edges, got %d" (List.length es))

let test_df_reachability () =
  let t =
    th {| e(X,Y) -> p(X).
          ghost(X) -> q(X).
          p(X), q(X) -> both(X). |}
  in
  check Alcotest.string "implicit EDB" "e,ghost"
    (pset_str (Df.implicit_edb t));
  let edb = pset [ ("e", 2) ] in
  check Alcotest.string "reachable from e" "e,p"
    (pset_str (Df.reachable_from ~edb t));
  let l = Df.liveness ~edb t in
  check Alcotest.int "one live rule" 1 (List.length l.Df.live);
  (match l.Df.dead with
  | [ (_, b1); (_, b2) ] ->
      check Alcotest.string "ghost blocks rule 2" "ghost" (Pred.name b1);
      check Alcotest.string "q blocks rule 3" "q" (Pred.name b2)
  | ds -> Alcotest.failf "expected 2 dead rules, got %d" (List.length ds));
  (* with ghost in the EDB everything lives *)
  let l' = Df.liveness ~edb:(pset [ ("e", 2); ("ghost", 1) ]) t in
  check Alcotest.int "no dead rules" 0 (List.length l'.Df.dead)

let two_component_theory =
  {| e(X,Y), e(Y,Z) -> e(X,Z).
     e(X,Y) -> reach(Y).
     f(U,V), f(V,W) -> f(U,W).
     f(U,V) -> far(V). |}

let test_df_slice () =
  let t = th two_component_theory in
  let q = Parser.parse_query "? reach(X)." in
  let sl = Df.slice t (Ucq.of_cq q) in
  check Alcotest.bool "proper" true (Df.is_proper sl);
  check Alcotest.int "kept the e-component" 2 (List.length sl.Df.kept);
  check Alcotest.int "dropped the f-component" 2 (List.length sl.Df.dropped);
  check Alcotest.string "relevant set" "e,reach" (pset_str sl.Df.relevant);
  check Alcotest.int "sliced theory size" 2 (Theory.size sl.Df.sliced);
  (* a query spanning both components keeps everything *)
  let q' = Parser.parse_query "? reach(X), far(Y)." in
  let sl' = Df.slice t (Ucq.of_cq q') in
  check Alcotest.bool "nothing to drop" false (Df.is_proper sl')

let test_df_slice_strong_closure () =
  (* the kept rule's whole head joins the relevant set: the restricted
     chase's witness check reads both head atoms, so c must survive *)
  let t = th "a(X) -> b(X), c(X). c(X) -> d(X)." in
  let sl = Df.slice_preds t (pset [ ("b", 1) ]) in
  check Alcotest.string "b pulls in the whole head" "a,b,c"
    (pset_str sl.Df.relevant);
  check Alcotest.int "kept" 1 (List.length sl.Df.kept);
  (* ... but rules *consuming* c are not pulled in backwards *)
  check Alcotest.int "dropped the c-consumer" 1 (List.length sl.Df.dropped)

let test_df_certain_agrees () =
  let t = th two_component_theory in
  let d =
    Instance.of_atoms
      (Parser.parse_atoms "e(a,b). e(b,c). f(a,b). f(b,c).")
  in
  let q = Parser.parse_query "? reach(c)." in
  let show = function
    | Chase.Entailed k -> Printf.sprintf "entailed:%d" k
    | Chase.Not_entailed -> "not-entailed"
    | Chase.Unknown (r, k) ->
        Printf.sprintf "unknown:%s:%d" (Budget.resource_name r) k
  in
  let full = Chase.run ~max_rounds:8 t d in
  let unsliced = Chase.certain ~max_rounds:8 t d q in
  let sliced = Df.certain ~max_rounds:8 t d q in
  check Alcotest.string "verdicts agree" (show unsliced) (show sliced);
  (* and the slice genuinely chased less: no far-facts were derived *)
  let sl = Df.slice t (Ucq.of_cq q) in
  let r = Chase.run ~max_rounds:8 sl.Df.sliced d in
  check Alcotest.bool "sliced chase is smaller" true
    (Instance.num_facts r.Chase.instance
    < Instance.num_facts full.Chase.instance)

let test_df_analyzer_agreement () =
  (* the lint codes are the user-facing face of Df.liveness: the same
     rules and predicates must be reported by both *)
  let p =
    prog
      {| e(a,b).
         e(X,Y) -> p(X).
         ghost(X) -> q(X).
         ? p(X). |}
  in
  let ds = A.analyze (A.of_program p) in
  check Alcotest.bool "dead-rule" true (A.has_code A.Codes.dead_rule ds);
  check Alcotest.bool "unreachable-predicate" true
    (A.has_code A.Codes.unreachable_predicate ds);
  check Alcotest.bool "ghost named" true
    (contains ~affix:"ghost" (witness_of A.Codes.dead_rule ds));
  let t = Theory.make p.Parser.rules in
  let edb = pset [ ("e", 2) ] in
  let l = Df.liveness ~edb t in
  check Alcotest.int "liveness agrees: one dead rule" 1
    (List.length l.Df.dead);
  check Alcotest.string "liveness agrees: ghost blocks it" "ghost"
    (Pred.name (snd (List.hd l.Df.dead)))

let test_df_report_formats () =
  let t = th two_component_theory in
  let q = Parser.parse_query "? reach(X)." in
  let r = Df.report ~facts:(pset [ ("e", 2); ("f", 2) ]) ~queries:[ q ] t in
  let json = Bddfc_obs.Obs.Json.to_string (Df.report_json r) in
  (match Bddfc_obs.Obs.Json.parse json with
  | Ok _ -> ()
  | Error e -> Alcotest.failf "report JSON does not re-parse: %s" e);
  let dot = Df.report_dot r in
  check Alcotest.bool "dot digraph" true (contains ~affix:"digraph" dot);
  check Alcotest.bool "dot has the slice query's pred" true
    (contains ~affix:"reach" dot);
  let text = Fmt.str "%a" Df.pp_report r in
  List.iter
    (fun section ->
      check Alcotest.bool ("text section " ^ section) true
        (contains ~affix:section text))
    [ "== predicates =="; "== null flow =="; "== reachability ==";
      "== rules =="; "== slices ==" ]

let suite =
  ( "analysis",
    [ tc "empty theory is clean" test_empty_theory;
      tc "0-ary predicates" test_zero_ary;
      tc "constant in existential head" test_constant_in_existential_head;
      tc "body and head share no variables" test_body_head_disjoint;
      tc "sec55 lints clean but carries the cycle" test_sec55_clean_but_cyclic;
      tc "arity mismatch is an error" test_arity_mismatch;
      tc "EDB checks gate on edb_known" test_edb_gating;
      tc "underscore exempts singletons" test_underscore_exemption;
      tc "sticky marking provenance" test_sticky_trace;
      tc "report booleans match details" test_report_matches_details;
      tc "locations thread from the parser" test_loc_threading;
      tc "json escaping" test_json_escape;
      tc "diagnostic ordering" test_ordering;
      tc "pre-flight upgrades Unknown to definite" test_preflight_upgrades;
      tc "pre-flight skips cyclic theories" test_preflight_skips_cyclic;
      tc "judge reports chase termination" test_judge_chase_terminating;
      tc "dataflow: graph, null flow, finite range" test_df_graph;
      tc "dataflow: reachability and liveness" test_df_reachability;
      tc "dataflow: query-directed slice" test_df_slice;
      tc "dataflow: slice closure keeps whole heads"
        test_df_slice_strong_closure;
      tc "dataflow: sliced certain agrees and chases less"
        test_df_certain_agrees;
      tc "dataflow: liveness agrees with the lint codes"
        test_df_analyzer_agreement;
      tc "dataflow: report text/json/dot are well-formed"
        test_df_report_formats
    ] )
