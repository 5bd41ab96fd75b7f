(* The rewriting loop against its reference (reference_rewrite.ml).

   The library tests each narrow candidate against the kept set before
   minimizing it, and minimizes only the survivors; the reference
   minimizes every candidate first.  The two must agree exactly: the same
   disjuncts in the same order, the same step count, completeness and
   trip, and the same kappa.  Inputs: every rule body of every zoo theory,
   both as written and after the pipeline's normalization (the query
   hidden, then spade5), the random theories and queries of the hc
   suite, and fuel-trap points.  Every containment test of the reference
   is the structural oracle (reference_containment.ml), so each case
   also holds the library's matcher to an independent check. *)

open Bddfc_budget
open Bddfc_logic
open Bddfc_hom
open Bddfc_finitemodel
open Bddfc_workload
module Rewrite = Bddfc_rewriting.Rewrite
module Reference = Reference_rewrite
module M = Bddfc_obs.Obs.Metrics

let check = Alcotest.check
let tc name f = Alcotest.test_case name `Quick f

(* Both loops draw variables from the global fresh-name supply: pin it,
   so structural equality of the disjuncts is the right oracle. *)
let pinned f =
  Term.reset_fresh_counter ();
  f ()

(* Same disjuncts in the same order, same steps, kept count,
   completeness and trip. *)
let check_result = Test_hc.check_rewrite_agrees

let check_kappa name (a : Rewrite.kappa_result) (b : Rewrite.kappa_result) =
  check Alcotest.int (name ^ ": kappa") a.Rewrite.kappa b.Rewrite.kappa;
  check Alcotest.bool (name ^ ": all_complete") a.Rewrite.all_complete
    b.Rewrite.all_complete;
  check
    Alcotest.(option string)
    (name ^ ": tripped")
    (Option.map Budget.resource_name a.Rewrite.tripped)
    (Option.map Budget.resource_name b.Rewrite.tripped)

(* The pipeline's rewrite caps. *)
let max_disjuncts = Pipeline.default_params.Pipeline.rewrite_max_disjuncts
let max_steps = Pipeline.default_params.Pipeline.rewrite_max_steps

let agree_on ?(max_disjuncts = max_disjuncts) ?(max_steps = max_steps) name
    theory =
  List.iter
    (fun rule ->
      let body = Rule.body_query rule in
      check_result
        (name ^ " " ^ Rule.name rule)
        (pinned (fun () ->
             Reference.rewrite ~max_disjuncts ~max_steps theory body))
        (pinned (fun () -> Rewrite.rewrite ~max_disjuncts ~max_steps theory body)))
    (Theory.rules theory);
  check_kappa name
    (pinned (fun () -> Reference.kappa ~max_disjuncts ~max_steps theory))
    (pinned (fun () -> Rewrite.kappa ~max_disjuncts ~max_steps theory))

let test_zoo () =
  List.iter
    (fun (e : Zoo.entry) ->
      if Theory.all_single_head e.Zoo.theory then
        agree_on e.Zoo.name e.Zoo.theory;
      let hidden = Normalize.hide_query e.Zoo.theory e.Zoo.query in
      match Normalize.spade5 hidden.Normalize.theory with
      | exception Normalize.Unsupported _ -> ()
      | split -> agree_on (e.Zoo.name ^ "/t2") split.Normalize.theory)
    Zoo.all

(* The hc suite's random theories and queries (same seeds and caps). *)
let test_random () =
  let max_disjuncts = 30 and max_steps = 150 in
  for seed = 0 to 59 do
    let theory = Gen.random_binary_theory ~rules:4 ~seed () in
    let st = Random.State.make [| seed; 401 |] in
    let query = Test_hc.random_cq st in
    let name = Printf.sprintf "seed %d" seed in
    check_result name
      (pinned (fun () ->
           Reference.rewrite ~max_disjuncts ~max_steps theory query))
      (pinned (fun () -> Rewrite.rewrite ~max_disjuncts ~max_steps theory query));
    agree_on ~max_disjuncts ~max_steps name theory
  done

(* A candidate wider than [max_disjunct_vars] takes the minimize-first
   path, and marks the run incomplete even when the kept set subsumes
   it.  Narrow caps make such candidates common. *)
let test_wide_candidates () =
  List.iter
    (fun (e : Zoo.entry) ->
      if Theory.all_single_head e.Zoo.theory then
        List.iter
          (fun max_disjunct_vars ->
            let t = e.Zoo.theory and q = e.Zoo.query in
            check_result
              (Printf.sprintf "%s vars<=%d" e.Zoo.name max_disjunct_vars)
              (pinned (fun () ->
                   Reference.rewrite ~max_disjuncts ~max_steps:300
                     ~max_disjunct_vars t q))
              (pinned (fun () ->
                   Rewrite.rewrite ~max_disjuncts ~max_steps:300
                     ~max_disjunct_vars t q)))
          [ 2; 3; 4; 6 ])
    Zoo.all;
  (* the second rule's rewriting is a 4-variable core that the first
     rule's p(X) subsumes: the run is still incomplete, as it always was *)
  let theory =
    Parser.parse_theory
      "p(X) -> q(X). p(X), e(X,Y), e(Y,Z), e(Z,W) -> q(X)."
  in
  let query = Parser.parse_query "? q(X)." in
  let name = "subsumed wide core" in
  let r = pinned (fun () -> Rewrite.rewrite ~max_disjunct_vars:3 theory query) in
  check_result name
    (pinned (fun () -> Reference.rewrite ~max_disjunct_vars:3 theory query))
    r;
  check Alcotest.bool (name ^ ": incomplete") false r.Rewrite.complete

(* Both loops charge the governor at the same points, so a trap lands on
   the same step, and an expired deadline trips before the first. *)
let test_budget_points () =
  let theory =
    Parser.parse_theory "e(X,Y) -> e(Y,X). e(X,Y), e(Y,Z) -> e(X,Z)."
  in
  let query = Parser.parse_query "? e(X,Y)." in
  let budgets =
    ("deadline 0", fun () -> Budget.v ~deadline_s:(-1.0) ())
    :: List.map
         (fun after ->
           ( Printf.sprintf "trap %d" after,
             fun () -> Budget.with_fuel_trap ~after (Budget.v ()) ))
         [ 0; 1; 2; 3; 5; 8; 13; 21; 55 ]
  in
  List.iter
    (fun (name, budget) ->
      check_result name
        (pinned (fun () ->
             Reference.rewrite ~budget:(budget ()) ~max_disjuncts:40
               ~max_steps:200 theory query))
        (pinned (fun () ->
             Rewrite.rewrite ~budget:(budget ()) ~max_disjuncts:40
               ~max_steps:200 theory query)))
    budgets

(* remark3's query rewriting collapses 136 candidates onto 8 kept
   disjuncts: 105 of them are dropped before minimizing, and the counter
   says so. *)
let test_presubsumed_counter () =
  let e = Option.get (Zoo.find "remark3") in
  let before = M.snapshot () in
  let r =
    Rewrite.rewrite ~max_disjuncts ~max_steps e.Zoo.theory
      e.Zoo.query
  in
  let after = M.snapshot () in
  let count k =
    Option.value (M.find_int after k) ~default:0
    - Option.value (M.find_int before k) ~default:0
  in
  check Alcotest.int "rewrite.steps counts every candidate" r.Rewrite.generated
    (count "rewrite.steps");
  check Alcotest.bool "most candidates never reach minimize" true
    (count "rewrite.presubsumed" > 3 * r.Rewrite.generated / 4);
  check Alcotest.bool "presubsumed candidates are steps" true
    (count "rewrite.presubsumed" <= r.Rewrite.generated)

(* ------------------------------------------------------------------ *)
(* Minimal pieces by closure against the uncapped subset walk          *)
(* ------------------------------------------------------------------ *)

(* Each disjunct of one UCQ is contained in a disjunct of the other, both
   ways, by the structural containment test. *)
let check_equivalent name (a : Cq.t list) (b : Cq.t list) =
  let covered by d =
    List.exists
      (fun g -> Reference_containment.subsumes ~general:g d)
      by
  in
  check Alcotest.bool (name ^ ": closure disjuncts map into the walk's") true
    (List.for_all (covered b) a);
  check Alcotest.bool (name ^ ": walk disjuncts map into the closure's") true
    (List.for_all (covered a) b)

(* The rewriting of [query] by closure and by the walk.  [None] when the
   walk met a query with more than 8 atoms of a head's predicate;
   otherwise the closure is complete whenever the walk is, and complete
   UCQs are equivalent.  Returns whether both completed. *)
let closure_meets_walk ~max_disjuncts ~max_steps name theory query =
  match
    pinned (fun () ->
        Reference.rewrite ~one_steps:(Reference.walk_steps ~max_candidates:8)
          ~max_disjuncts ~max_steps theory query)
  with
  | exception Reference.Too_wide -> None
  | walk ->
      let closure =
        pinned (fun () -> Rewrite.rewrite ~max_disjuncts ~max_steps theory query)
      in
      if walk.Rewrite.complete then
        check Alcotest.bool (name ^ ": complete as the walk is") true
          closure.Rewrite.complete;
      let both = walk.Rewrite.complete && closure.Rewrite.complete in
      if both then check_equivalent name closure.Rewrite.ucq walk.Rewrite.ucq;
      Some both

(* The zoo bodies and the random theories' bodies and queries: the walk
   is exponential in the atoms sharing a head's predicate, so queries
   with more than 8 are skipped, and the test insists that most inputs
   are compared. *)
let test_pieces_walk () =
  let compared = ref 0 and total = ref 0 in
  let run ~max_disjuncts ~max_steps name theory query =
    incr total;
    match closure_meets_walk ~max_disjuncts ~max_steps name theory query with
    | Some true -> incr compared
    | Some false | None -> ()
  in
  let bodies ~max_disjuncts ~max_steps name theory =
    List.iter
      (fun rule ->
        run ~max_disjuncts ~max_steps
          (name ^ " " ^ Rule.name rule)
          theory (Rule.body_query rule))
      (Theory.rules theory)
  in
  List.iter
    (fun (e : Zoo.entry) ->
      if Theory.all_single_head e.Zoo.theory then begin
        bodies ~max_disjuncts:60 ~max_steps:400 e.Zoo.name e.Zoo.theory;
        run ~max_disjuncts:60 ~max_steps:400 (e.Zoo.name ^ " query")
          e.Zoo.theory e.Zoo.query
      end)
    Zoo.all;
  for seed = 0 to 59 do
    let theory = Gen.random_binary_theory ~rules:4 ~seed () in
    let st = Random.State.make [| seed; 401 |] in
    let query = Test_hc.random_cq st in
    let name = Printf.sprintf "seed %d" seed in
    run ~max_disjuncts:30 ~max_steps:150 (name ^ " query") theory query;
    bodies ~max_disjuncts:30 ~max_steps:150 name theory
  done;
  check Alcotest.bool
    (Printf.sprintf "most inputs compared (%d of %d)" !compared !total)
    true
    (10 * !compared >= 9 * !total)

(* ? a1(X1), ..., ak(Xk), e(X1,Y), ..., e(Xk,Y) under
   p(X) -> exists Z. e(X,Z): the only piece holds all k e-atoms. *)
let star k =
  let idx = List.init k (fun i -> string_of_int (i + 1)) in
  Parser.parse_query
    ("? "
    ^ String.concat ", "
        (List.map (fun i -> Printf.sprintf "a%s(X%s)" i i) idx
        @ List.map (fun i -> Printf.sprintf "e(X%s,Y)" i) idx)
    ^ ".")

let test_pieces_star () =
  let theory = Parser.parse_theory "p(X) -> exists Z. e(X,Z)." in
  List.iter
    (fun k ->
      let name = Printf.sprintf "star %d" k in
      let r = Rewrite.rewrite theory (star k) in
      check Alcotest.bool (name ^ ": complete") true r.Rewrite.complete;
      (* the query itself and p(X), a1(X), ..., ak(X) *)
      check Alcotest.int (name ^ ": two disjuncts") 2 (List.length r.Rewrite.ucq);
      check Alcotest.bool (name ^ ": the p disjunct") true
        (List.exists
           (fun d -> Cq.num_atoms d = k + 1 && Cq.num_vars d = 1)
           r.Rewrite.ucq);
      if k <= 8 then
        check Alcotest.(option bool) (name ^ ": walk agrees") (Some true)
          (closure_meets_walk ~max_disjuncts ~max_steps name theory (star k)))
    [ 1; 2; 5; 6; 7; 8; 10; 16 ]

(* ------------------------------------------------------------------ *)
(* One-pass minimization against the restart-from-the-head loop        *)
(* ------------------------------------------------------------------ *)

(* Same atoms in the same order, over every zoo body (as written and
   normalized), the random theories' bodies and queries, and every
   one-step rewriting of those by each rule of their theory. *)
let test_minimize_reference () =
  let checked = ref 0 in
  let same name q =
    incr checked;
    check Test_hc.cq name (Reference.minimize q) (Test_hc.minimize q)
  in
  let with_steps name theory q =
    same name q;
    List.iter
      (fun rule ->
        List.iteri
          (fun i c -> same (Printf.sprintf "%s/%s.%d" name (Rule.name rule) i) c)
          (Bddfc_rewriting.Piece.one_steps rule q))
      (Theory.rules theory)
  in
  let bodies name theory =
    List.iter
      (fun rule ->
        with_steps (name ^ " " ^ Rule.name rule) theory (Rule.body_query rule))
      (Theory.rules theory)
  in
  List.iter
    (fun (e : Zoo.entry) ->
      if Theory.all_single_head e.Zoo.theory then bodies e.Zoo.name e.Zoo.theory;
      let hidden = Normalize.hide_query e.Zoo.theory e.Zoo.query in
      match Normalize.spade5 hidden.Normalize.theory with
      | exception Normalize.Unsupported _ -> ()
      | split -> bodies (e.Zoo.name ^ "/t2") split.Normalize.theory)
    Zoo.all;
  for seed = 0 to 59 do
    let theory = Gen.random_binary_theory ~rules:4 ~seed () in
    let st = Random.State.make [| seed; 401 |] in
    let name = Printf.sprintf "seed %d" seed in
    with_steps (name ^ " query") theory (Test_hc.random_cq st);
    bodies name theory
  done;
  check Alcotest.bool "queries checked" true (!checked > 500)

(* ------------------------------------------------------------------ *)
(* The chase-based completeness oracle                                 *)
(* ------------------------------------------------------------------ *)

(* A UCQ the rewriting marks complete is the whole rewriting: over a
   theory whose chase terminates, it holds on a database exactly when
   the chase to fixpoint entails the query.  Nothing here shares code
   with piece.ml: the chase is the reference, and the rewriting is
   judged by its answers alone.  Queries are made Boolean, so the
   verdicts compare as they are.  Returns the (query, database) pairs
   compared. *)
let chase_agrees name theory queries dbs =
  let theory =
    if Theory.all_single_head theory then theory
    else
      (Bddfc_classes.Multihead.to_single_head theory)
        .Bddfc_classes.Multihead.theory
  in
  let module T = Bddfc_chase.Termination in
  let module C = Bddfc_chase.Chase in
  if not (T.weakly_acyclic theory || T.jointly_acyclic theory) then 0
  else begin
    let chased =
      List.map
        (fun db ->
          let r = C.run ~max_rounds:200 ~max_elements:50_000 theory db in
          check Alcotest.bool (name ^ ": the chase reaches its fixpoint") true
            (r.C.outcome = C.Fixpoint);
          (db, r.C.instance))
        dbs
    in
    List.fold_left
      (fun n (qname, q) ->
        let q = Cq.boolean (Cq.body q) in
        let r = Rewrite.rewrite ~max_disjuncts ~max_steps theory q in
        if not r.Rewrite.complete then n
        else
          List.fold_left
            (fun (n, i) (db, model) ->
              check Alcotest.bool
                (Printf.sprintf
                   "%s %s db %d: the UCQ holds iff the chase entails" name
                   qname i)
                (Eval.holds model q)
                (Rewrite.ucq_holds db r.Rewrite.ucq);
              (n + 1, i + 1))
            (n, 0) chased
          |> fst)
      0 queries
  end

let body_queries theory =
  List.map
    (fun rule -> (Rule.name rule, Rule.body_query rule))
    (Theory.rules theory)

(* [facts] random facts over the predicates of [preds], with constants
   drawn from [consts]. *)
let random_db ~seed ~facts ~consts preds =
  let st = Random.State.make [| seed; 613 |] in
  let pick a = a.(Random.State.int st (Array.length a)) in
  let preds = Array.of_list preds and consts = Array.of_list consts in
  Bddfc_structure.Instance.of_atoms
    (List.init facts (fun _ ->
         let p = pick preds in
         Atom.make p
           (List.init (Pred.arity p) (fun _ -> Term.cst (pick consts)))))

let test_oracle_zoo () =
  let compared =
    List.fold_left
      (fun n (e : Zoo.entry) ->
        let sg = Theory.signature e.Zoo.theory in
        let preds = Signature.preds sg in
        let consts = "a" :: "b" :: Signature.consts sg in
        let dbs =
          Zoo.database_instance e
          :: List.init 6 (fun seed ->
                 random_db ~seed ~facts:(3 + seed) ~consts preds)
        in
        n
        + chase_agrees e.Zoo.name e.Zoo.theory
            (("query", e.Zoo.query) :: body_queries e.Zoo.theory)
            dbs)
      0 Zoo.all
  in
  check Alcotest.bool
    (Printf.sprintf "zoo pairs compared (%d)" compared)
    true (compared > 40)

let test_oracle_random () =
  let compared = ref 0 in
  for seed = 0 to 59 do
    let theory = Gen.random_binary_theory ~rules:4 ~seed () in
    let st = Random.State.make [| seed; 401 |] in
    let dbs =
      List.init 4 (fun i ->
          Gen.random_instance ~facts:(4 + i) ~seed:(seed + 1000 + (100 * i)) ())
    in
    compared :=
      !compared
      + chase_agrees
          (Printf.sprintf "seed %d" seed)
          theory
          (("query", Test_hc.random_cq st) :: body_queries theory)
          dbs
  done;
  check Alcotest.bool
    (Printf.sprintf "random pairs compared (%d)" !compared)
    true (!compared > 500)

(* The piece-size family: the query holds on [p(c), a1(c), ..., ak(c)]
   only through the disjunct a k-atom piece yields. *)
let test_oracle_pieces () =
  let theory = Parser.parse_theory "p(X) -> exists Z. e(X,Z)." in
  List.iter
    (fun k ->
      let db src = Bddfc_structure.Instance.of_atoms (Parser.parse_atoms src) in
      let ais c j =
        List.init j (fun i -> Printf.sprintf "a%d(%s)." (i + 1) c)
      in
      let preds =
        Pred.make "p" 1 :: Pred.make "e" 2
        :: List.init k (fun i -> Pred.make (Printf.sprintf "a%d" (i + 1)) 1)
      in
      let dbs =
        [ db (String.concat " " ("p(c)." :: ais "c" k));
          db (String.concat " " ("p(c)." :: ais "c" (k - 1)));
          db (String.concat " " ("e(c,d)." :: ais "c" k));
        ]
        @ List.init 6 (fun seed ->
              random_db ~seed ~facts:(k + 3) ~consts:[ "c"; "d" ] preds)
      in
      let name = Printf.sprintf "star %d" k in
      let compared = chase_agrees name theory [ ("query", star k) ] dbs in
      check Alcotest.int (name ^ ": pairs compared") (List.length dbs) compared)
    [ 6; 7; 10 ]

let suite =
  ( "rewrite",
    [
      tc "zoo bodies: library loop equals the reference" test_zoo;
      tc "random theories: library loop equals the reference" test_random;
      tc "wide candidates: same completeness as the reference"
        test_wide_candidates;
      tc "budget points: same trips as the reference" test_budget_points;
      tc "presubsumed counter" test_presubsumed_counter;
      tc "pieces: closure UCQs equal the uncapped walk's" test_pieces_walk;
      tc "pieces: one piece of k atoms, any k" test_pieces_star;
      tc "minimize: one pass equals the restart loop" test_minimize_reference;
      tc "oracle: complete zoo UCQs agree with the chase" test_oracle_zoo;
      tc "oracle: complete random UCQs agree with the chase" test_oracle_random;
      tc "oracle: complete star UCQs agree with the chase" test_oracle_pieces;
    ] )
