(* Unit tests for Bddfc_finitemodel: normalization, model checking,
   certificates, the naive baseline, the Theorem 2 pipeline. *)

open Bddfc_logic
open Bddfc_structure
open Bddfc_hom
open Bddfc_chase
open Bddfc_finitemodel
open Bddfc_workload

let check = Alcotest.check
let tc name f = Alcotest.test_case name `Quick f

let th src = Parser.parse_theory src
let db src = Instance.of_atoms (Parser.parse_atoms src)
let q src = Parser.parse_query src

(* ------------------------------------------------------------------ *)
(* Normalize                                                           *)
(* ------------------------------------------------------------------ *)

let test_hide_query () =
  let t = th "e(X,Y) -> exists Z. e(Y,Z)." in
  let h = Normalize.hide_query t (q "? e(X,Y), e(Y,X).") in
  check Alcotest.int "one rule added" 2 (Theory.size h.Normalize.theory);
  (* F is invented: no symbol of the input, even one spelled like it,
     and no program can name it *)
  let f = h.Normalize.query_pred in
  let t' = th "e(X,Y) -> exists Z. e(Y,Z). f_hidden(X,Y) -> e(X,Y)." in
  let h' = Normalize.hide_query t' (q "? f_hidden(X,X).") in
  let f' = h'.Normalize.query_pred in
  check Alcotest.bool "fresh predicate" false
    (Pred.Set.mem f' (Signature.pred_set (Theory.signature t')));
  check Alcotest.bool "same F for every input" true (Pred.equal f f');
  check Alcotest.bool "no program names F" true
    (match Parser.parse_atoms (Pred.name f ^ "(a,a).") with
    | exception Parser.Parse_error _ -> true
    | _ -> false);
  (* the F-rule fires exactly when the query holds *)
  let d = db "e(a,b). e(b,a)." in
  let r = Chase.run ~max_rounds:3 h.Normalize.theory d in
  check Alcotest.bool "F derived" true
    (Instance.facts_with_pred r.Chase.instance h.Normalize.query_pred <> []);
  let d2 = db "e(a,b)." in
  let r2 = Chase.run ~max_rounds:5 h.Normalize.theory d2 in
  check Alcotest.bool "F not derived" true
    (Instance.facts_with_pred r2.Chase.instance h.Normalize.query_pred = [])

let test_hide_ground_query () =
  let t = th "e(X,Y) -> exists Z. e(Y,Z)." in
  let h = Normalize.hide_query t (q "? e(a,b).") in
  let r = Chase.run ~max_rounds:3 h.Normalize.theory (db "e(a,b).") in
  check Alcotest.bool "ground query hidden and detected" true
    (Instance.facts_with_pred r.Chase.instance h.Normalize.query_pred <> [])

let test_spade5_shapes () =
  let t =
    th
      {| e(X,Y) -> exists Z. e(Y,Z).
         p(X) -> exists Z. e(Z,X).
         p(X) -> exists Z. r(Z,Z).
         p(X) -> exists Z. m(Z).
         e(X,Y), e(Y,Z) -> e(X,Z). |}
  in
  let s = Normalize.spade5 t in
  check Alcotest.bool "normalized" true (Theory.is_normalized s.Normalize.theory);
  check Alcotest.int "four TGPs" 4 (List.length s.Normalize.tgps);
  (* semantics preserved: chase certain answers agree on samples *)
  let d = db "p(a). e(b,c)." in
  List.iter
    (fun qs ->
      let query = q qs in
      let c1 = Chase.certain ~max_rounds:8 t d query in
      let c2 = Chase.certain ~max_rounds:10 s.Normalize.theory d query in
      let entailed = function Chase.Entailed _ -> Some true | Chase.Not_entailed -> Some false | Chase.Unknown _ -> None in
      match (entailed c1, entailed c2) with
      | Some b1, Some b2 -> check Alcotest.bool ("agrees on " ^ qs) b1 b2
      | None, _ | _, None -> () (* infinite chase on both: fine *))
    [ "? r(U,U)."; "? m(U)."; "? e(U,a)."; "? e(b,U), e(U,V)." ]

let test_spade5_frontier_one_multi_witness () =
  (* Section 5.1: one TGP per existential variable plus a joining rule *)
  let t = th "p(Y) -> exists Z,W. g(Y,Z,W)." in
  let s = Normalize.spade5 t in
  check Alcotest.int "two TGDs + join" 3 (Theory.size s.Normalize.theory);
  let d = db "p(a)." in
  let r = Chase.run ~max_rounds:4 s.Normalize.theory d in
  check Alcotest.bool "joined head derived" true
    (Eval.holds r.Chase.instance (q "? g(a,Z,W).")) ;
  check Alcotest.bool "fixpoint" true (Chase.is_model r)

let test_spade5_rejects_wide_frontier () =
  let t = th "e(X,Y) -> exists Z. g(X,Y,Z)." in
  match Normalize.spade5 t with
  | exception Normalize.Unsupported _ -> ()
  | _ -> Alcotest.fail "expected Unsupported for a two-variable frontier"

(* ------------------------------------------------------------------ *)
(* Model_check / Certificate                                           *)
(* ------------------------------------------------------------------ *)

let test_model_check () =
  let t = th "e(X,Y) -> exists Z. e(Y,Z). e(X,Y), e(Y,Z) -> e(X,Z)." in
  let loop = db "e(a,a)." in
  check Alcotest.bool "loop is a model" true (Model_check.is_model t loop);
  let edge = db "e(a,b)." in
  check Alcotest.bool "edge is not" false (Model_check.is_model t edge);
  let v = Model_check.violations t edge in
  check Alcotest.bool "violation reported" true (v <> []);
  (* 3-cycle: needs transitive closure *)
  let c3 = db "e(a,b). e(b,c). e(c,a)." in
  check Alcotest.bool "bare cycle violates transitivity" false
    (Model_check.is_model t c3)

let test_contains_database () =
  let d = db "e(a,b). p(a)." in
  check Alcotest.bool "superset ok" true
    (Model_check.contains_database ~db:d (db "e(a,b). p(a). p(b)."));
  check Alcotest.bool "missing fact" false
    (Model_check.contains_database ~db:d (db "e(a,b)."));
  check Alcotest.bool "missing constant" false
    (Model_check.contains_database ~db:d (db "e(a,c)."))

let test_certificate () =
  let t = th "e(X,Y) -> exists Z. e(Y,Z)." in
  let cert =
    { Certificate.theory = t;
      database = db "e(a,b).";
      query = q "? e(X,X).";
      model = db "e(a,b). e(b,c). e(c,b).";
    }
  in
  check Alcotest.bool "valid certificate" true (Certificate.is_valid cert);
  let bad = { cert with model = db "e(a,b)." } in
  check Alcotest.bool "missing witness caught" false (Certificate.is_valid bad);
  let bad2 = { cert with model = db "e(a,b). e(b,b)." } in
  check Alcotest.bool "query-satisfying model caught" false
    (Certificate.is_valid bad2);
  let bad3 = { cert with model = db "e(b,c). e(c,b)." } in
  check Alcotest.bool "database dropped caught" false (Certificate.is_valid bad3)

(* ------------------------------------------------------------------ *)
(* Naive                                                               *)
(* ------------------------------------------------------------------ *)

let test_naive_search_finds () =
  let t = th "e(X,Y) -> exists Z. e(Y,Z)." in
  match Naive.search t (db "e(a,b).") (q "? e(X,X).") with
  | Naive.Found m ->
      check Alcotest.bool "model checks" true (Model_check.is_model t m);
      check Alcotest.bool "avoids query" false (Eval.holds m (q "? e(X,X)."));
      check Alcotest.bool "small" true (Instance.num_elements m <= 4)
  | _ -> Alcotest.fail "expected a model"

let test_naive_search_example1 () =
  let e = Option.get (Zoo.find "ex1") in
  match Naive.search e.Zoo.theory (Zoo.database_instance e) e.Zoo.query with
  | Naive.Found m ->
      check Alcotest.bool "model checks" true
        (Model_check.is_model e.Zoo.theory m);
      check Alcotest.bool "avoids u" false (Eval.holds m e.Zoo.query)
  | _ -> Alcotest.fail "expected a model for Example 1"

let test_naive_search_nonfc () =
  (* Section 5.5: no countermodel exists; the DFS must not fabricate one *)
  let e = Option.get (Zoo.find "sec55") in
  let params = { Naive.default_search_params with max_size = 6; max_nodes = 4_000 } in
  match Naive.search ~params e.Zoo.theory (Zoo.database_instance e) e.Zoo.query with
  | Naive.Found m ->
      Alcotest.failf "impossible: found a %d-element countermodel"
        (Instance.num_elements m)
  | Naive.Exhausted | Naive.Budget_out _ -> ()

let test_exhaustive_absence_sec55 () =
  (* prove there is no countermodel with one extra element *)
  let e = Option.get (Zoo.find "sec55") in
  match
    Naive.exhaustive_absence ~max_candidates:20 ~max_extra:1 e.Zoo.theory
      (Zoo.database_instance e) e.Zoo.query
  with
  | Naive.No_model -> ()
  | Naive.Counter_model _ -> Alcotest.fail "section 5.5 refuted?!"
  | Naive.Too_large k -> Alcotest.failf "guard hit at %d candidates" k
  | Naive.Absence_exhausted _ -> Alcotest.fail "unexpected budget trip"

let test_exhaustive_finds_when_exists () =
  let t = th "e(X,Y) -> exists Z. e(Y,Z)." in
  match
    Naive.exhaustive_absence ~max_candidates:20 ~max_extra:1 t (db "e(a,b).")
      (q "? e(X,X).")
  with
  | Naive.Counter_model m ->
      check Alcotest.bool "model" true (Model_check.is_model t m)
  | Naive.No_model -> Alcotest.fail "a 3-element countermodel exists"
  | Naive.Too_large _ -> Alcotest.fail "guard hit"
  | Naive.Absence_exhausted _ -> Alcotest.fail "unexpected budget trip"

(* ------------------------------------------------------------------ *)
(* Pipeline                                                            *)
(* ------------------------------------------------------------------ *)

let run_zoo name =
  let e = Option.get (Zoo.find name) in
  Pipeline.construct e.Zoo.theory (Zoo.database_instance e) e.Zoo.query

let test_pipeline_example1 () =
  match run_zoo "ex1" with
  | Pipeline.Model (cert, stats) ->
      check Alcotest.bool "certificate valid" true (Certificate.is_valid cert);
      check Alcotest.int "kappa 3" 3 stats.Pipeline.kappa;
      check Alcotest.bool "kappa complete" true stats.Pipeline.kappa_complete
  | _ -> Alcotest.fail "expected a model for Example 1"

let test_pipeline_example7 () =
  match run_zoo "ex7" with
  | Pipeline.Model (cert, _) ->
      check Alcotest.bool "valid" true (Certificate.is_valid cert);
      (* the saturation derived r-atoms: Lemma 5 in action *)
      check Alcotest.bool "r-atoms present" true
        (Instance.facts_with_pred cert.Certificate.model (Pred.make "r" 2) <> [])
  | _ -> Alcotest.fail "expected a model for Example 7"

let test_pipeline_example9 () =
  match run_zoo "ex9" with
  | Pipeline.Model (cert, _) ->
      check Alcotest.bool "valid" true (Certificate.is_valid cert)
  | _ -> Alcotest.fail "expected a model for Example 9"

let test_pipeline_entailed () =
  match run_zoo "remark3" with
  | Pipeline.Query_entailed d ->
      check Alcotest.int "e(a,a) in D itself" 0 d
  | _ -> Alcotest.fail "remark3 query is certain (e(a,a) in D)"

let test_pipeline_finite_chase () =
  match run_zoo "weakly_acyclic" with
  | Pipeline.Model (cert, stats) ->
      check Alcotest.bool "valid" true (Certificate.is_valid cert);
      check Alcotest.bool "chase fixpoint shortcut" true stats.Pipeline.chase_fixpoint
  | _ -> Alcotest.fail "expected the finite chase as model"

let test_pipeline_linear_and_sticky () =
  List.iter
    (fun name ->
      match run_zoo name with
      | Pipeline.Model (cert, _) ->
          check Alcotest.bool (name ^ " valid") true (Certificate.is_valid cert)
      | _ -> Alcotest.fail ("expected a model for " ^ name))
    [ "linear"; "sticky" ]

let test_pipeline_nonfc_unknown () =
  (* Section 5.5 is not FC: the pipeline must never output a model, and it
     cannot prove entailment either (the chase never satisfies Phi) *)
  match run_zoo "sec55" with
  | Pipeline.Model (cert, _) ->
      Alcotest.failf "soundness bug: certificate valid=%b"
        (Certificate.is_valid cert)
  | Pipeline.Query_entailed _ -> Alcotest.fail "chase never satisfies Phi"
  | Pipeline.Unknown _ -> ()

let test_pipeline_query_on_entailed_instance () =
  (* same theory as ex1, but D already contains a triangle: u is certain *)
  let e = Option.get (Zoo.find "ex1") in
  let d = db "e(a,b). e(b,c). e(c,a)." in
  match Pipeline.construct e.Zoo.theory d e.Zoo.query with
  | Pipeline.Query_entailed k -> check Alcotest.bool "depth 1" true (k >= 1)
  | _ -> Alcotest.fail "u(X,Y) is certain on a triangle"

let test_pipeline_vs_naive_agreement () =
  (* both engines agree on model existence for the FC zoo members *)
  List.iter
    (fun name ->
      let e = Option.get (Zoo.find name) in
      let d = Zoo.database_instance e in
      let pipeline_found =
        match Pipeline.construct e.Zoo.theory d e.Zoo.query with
        | Pipeline.Model _ -> true
        | _ -> false
      in
      let naive_found =
        match Naive.search e.Zoo.theory d e.Zoo.query with
        | Naive.Found _ -> true
        | _ -> false
      in
      check Alcotest.bool (name ^ ": engines agree") naive_found pipeline_found)
    [ "ex1"; "ex7"; "linear"; "sticky"; "weakly_acyclic" ]

(* Names the construction used to invent, now legal input: facts over
   them, and query variables spelled like renamed-apart ones, change
   neither the judge's verdict kind nor its kappa.  The facts sit on a
   constant of the database: a fresh constant alone grows the domain,
   which turns sec55's small-model absence proof into "open". *)
let test_judge_invented_names () =
  let kind v =
    match v.Judge.evidence with
    | Judge.Certain _ -> "certain"
    | Judge.Witness _ -> "witness"
    | Judge.No_small_model _ -> "no-small-model"
    | Judge.Open _ -> "open"
  in
  let summary v =
    (kind v, Option.map (fun s -> s.Judge.kappa.Bddfc_rewriting.Rewrite.kappa)
        v.Judge.scope)
  in
  List.iter
    (fun (e : Zoo.entry) ->
      let tgp_names =
        List.filter_map
          (fun r ->
            if Rule.is_existential r then
              Some (Pred.name (Atom.pred (List.hd (Rule.head r))) ^ "_w")
            else None)
          (Theory.rules e.Zoo.theory)
      in
      let c = List.hd (Atom.args (List.hd e.Zoo.database)) in
      let extra =
        List.map (fun n -> Atom.app n [ c; c ]) ("f_hidden" :: tgp_names)
        @ List.concat_map
            (fun h ->
              List.init 4 (fun l ->
                  Atom.app (Printf.sprintf "k%d_%d" h l) [ c ]))
            (List.init 4 Fun.id)
      in
      let renamed =
        let vars = Cq.SS.elements (Cq.all_vars e.Zoo.query) in
        let s =
          Subst.of_bindings
            (List.mapi
               (fun k x -> (x, Term.Var (Printf.sprintf "_X%d" (k + 1))))
               vars)
        in
        let ren x =
          match Subst.find_opt x s with Some (Term.Var y) -> y | _ -> x
        in
        Cq.make
          ~answer:(List.map ren (Cq.answer e.Zoo.query))
          (Subst.apply_atoms s (Cq.body e.Zoo.query))
      in
      let plain =
        Judge.judge e.Zoo.theory (Zoo.database_instance e) e.Zoo.query
      in
      let hostile =
        Judge.judge e.Zoo.theory
          (Instance.of_atoms (e.Zoo.database @ extra))
          renamed
      in
      check
        Alcotest.(pair string (option int))
        (e.Zoo.name ^ ": verdict kind and kappa") (summary plain)
        (summary hostile))
    Zoo.all

let suite =
  ( "finitemodel",
    [ tc "hide query (♠4)" test_hide_query;
      tc "hide ground query" test_hide_ground_query;
      tc "♠5 shapes" test_spade5_shapes;
      tc "♠5 multi-witness (Section 5.1)" test_spade5_frontier_one_multi_witness;
      tc "♠5 rejects wide frontier" test_spade5_rejects_wide_frontier;
      tc "model check" test_model_check;
      tc "contains database" test_contains_database;
      tc "certificate verification" test_certificate;
      tc "naive search finds" test_naive_search_finds;
      tc "naive search Example 1" test_naive_search_example1;
      tc "naive search cannot fake non-FC" test_naive_search_nonfc;
      tc "exhaustive absence (Section 5.5)" test_exhaustive_absence_sec55;
      tc "exhaustive finds countermodel" test_exhaustive_finds_when_exists;
      tc "pipeline Example 1" test_pipeline_example1;
      tc "pipeline Example 7 (Lemma 5)" test_pipeline_example7;
      tc "pipeline Example 9" test_pipeline_example9;
      tc "pipeline certain query (Remark 3)" test_pipeline_entailed;
      tc "pipeline finite chase shortcut" test_pipeline_finite_chase;
      tc "pipeline linear and sticky" test_pipeline_linear_and_sticky;
      tc "pipeline honest on non-FC (5.5)" test_pipeline_nonfc_unknown;
      tc "pipeline detects entailment" test_pipeline_query_on_entailed_instance;
      tc "pipeline vs naive agreement" test_pipeline_vs_naive_agreement;
      tc "judge: invented names are legal input" test_judge_invented_names;
    ] )
