(* The ground-once absence search (Absence, Rup, Naive.exhaustive_absence)
   against the test-only 2^k enumerator in enum_absence.ml: the same
   verdict and, when a countermodel exists, the same countermodel fact for
   fact; every refutation accepted by the RUP checker and tampered ones
   rejected; the grounding true exactly on the countermodels; and the
   budget and registry accounting of the search. *)

open Bddfc_budget
open Bddfc_logic
open Bddfc_structure
open Bddfc_hom
open Bddfc_finitemodel
open Bddfc_workload
module Obs = Bddfc_obs.Obs

let check = Alcotest.check
let tc name f = Alcotest.test_case name `Quick f
let th src = Parser.parse_theory src
let db src = Instance.of_atoms (Parser.parse_atoms src)
let q src = Parser.parse_query src

type case = {
  name : string;
  theory : Theory.t;
  db : Instance.t;
  query : Cq.t;
  max_extra : int;
}

let zoo_cases =
  List.map
    (fun e ->
      let d = Zoo.database_instance e in
      let k extra =
        Array.length
          (Absence.space ~max_extra:extra e.Zoo.theory d).Absence.candidates
      in
      {
        name = e.Zoo.name;
        theory = e.Zoo.theory;
        db = d;
        query = e.Zoo.query;
        max_extra = (if k 1 <= 16 then 1 else 0);
      })
    Zoo.all

let queries =
  [| "? e(X,X)."; "? p(X), q(X)."; "? r(X,Y), f(Y,X)."; "? e(X,Y), p(Y).";
     "? q(X), r(X,X)." |]

(* Gen's random binary theories and instances over a fixed pool of
   queries, kept to at most 16 candidate facts. *)
let random_cases =
  List.filter_map
    (fun seed ->
      let c =
        {
          name = Printf.sprintf "seed %d" seed;
          theory = Gen.random_binary_theory ~rules:(2 + (seed mod 3)) ~seed ();
          db = Gen.random_instance ~facts:(1 + (seed mod 3)) ~seed ();
          query = q queries.(seed mod Array.length queries);
          max_extra = seed mod 2;
        }
      in
      let sp = Absence.space ~max_extra:c.max_extra c.theory c.db in
      if Array.length sp.Absence.candidates <= 16 then Some c else None)
    (List.init 200 (fun i -> i + 1))

(* Multi-atom heads (Tseitin auxiliaries), a refutation that needs
   branching, and constants in rule bodies, heads and queries. *)
let crafted_cases =
  [
    {
      name = "multi-head existential";
      theory =
        th "e(X,Y) -> exists Z. e(Y,Z), p(Z).\np(X), e(X,X) -> q(X).";
      db = db "e(a,b).";
      query = q "? q(X).";
      max_extra = 1;
    };
    {
      name = "multi-head datalog";
      theory = th "e(X,Y) -> p(X), p(Y).\np(X) -> exists Z. e(X,Z), e(Z,X).";
      db = db "e(a,b).";
      query = q "? e(X,X).";
      max_extra = 1;
    };
    {
      name = "multi-head refuted";
      theory = th "p(X) -> exists Z. e(X,Z), p(Z).\ne(X,Y), p(Y) -> q(X).";
      db = db "p(a).";
      query = q "? q(X), p(X).";
      max_extra = 1;
    };
    {
      (* every witness of one rule clashes with every witness of the
         other, two clauses at a time: refuting it needs decisions *)
      name = "clashing witnesses";
      theory = th "p(X) -> exists Z. e(X,Z).\np(X) -> exists Z. f(X,Z).";
      db = db "p(a).";
      query = q "? e(X,Y), f(X,Z).";
      max_extra = 1;
    };
    {
      name = "constants in body and query";
      theory = th "e(a,X) -> exists Z. e(X,Z).\ne(X,b) -> p(X).";
      db = db "e(a,b). e(b,a).";
      query = q "? p(a), e(X,a).";
      max_extra = 1;
    };
    {
      name = "constant query over fresh element";
      theory = th "e(X,Y) -> exists Z. e(Y,Z).\ne(X,c) -> p(X).";
      db = db "e(a,b).";
      query = q "? e(X,b), e(b,X).";
      max_extra = 1;
    };
  ]

let all_cases = zoo_cases @ crafted_cases @ random_cases

let kind = function
  | Naive.No_model -> "no model"
  | Naive.Counter_model _ -> "countermodel"
  | Naive.Too_large k -> Printf.sprintf "too large (%d)" k
  | Naive.Absence_exhausted r -> "exhausted " ^ Budget.resource_name r

let run c =
  Naive.exhaustive_absence ~max_candidates:16 ~max_extra:c.max_extra c.theory
    c.db c.query

let test_agrees_with_enumerator () =
  let models = ref 0 and refuted = ref 0 in
  List.iter
    (fun c ->
      let oracle =
        Enum_absence.exhaustive_absence ~max_candidates:16
          ~max_extra:c.max_extra c.theory c.db c.query
      in
      let got = run c in
      check Alcotest.string (c.name ^ ": verdict") (kind oracle) (kind got);
      match (oracle, got) with
      | Naive.Counter_model m, Naive.Counter_model m' ->
          incr models;
          check Alcotest.bool (c.name ^ ": same countermodel") true
            (Instance.equal_facts m m')
      | Naive.No_model, _ -> incr refuted
      | _ -> ())
    all_cases;
  check Alcotest.bool ">= 60 random cases" true
    (List.length random_cases >= 60);
  check Alcotest.bool "both verdicts exercised" true
    (!models > 8 && !refuted > 8)

(* -------------------------------------------------------------------- *)
(* RUP certificates                                                      *)
(* -------------------------------------------------------------------- *)

let without_last l = List.rev (List.tl (List.rev l))

(* Every refutation the suite produces is accepted; losing its empty
   clause, or every lemma before it when the solver had to branch, gets
   it rejected.  No satisfiable grounding admits the bare empty clause. *)
let test_checker_accepts_solver_logs () =
  let logs = ref 0 and branched = ref 0 in
  List.iter
    (fun c ->
      let sp = Absence.space ~max_extra:c.max_extra c.theory c.db in
      if Array.length sp.Absence.candidates <= 16 then
        match Absence.decide ~budget:Budget.unlimited c.theory c.query sp with
        | Absence.Refuted (cnf, log) ->
            incr logs;
            let clauses = cnf.Absence.clauses in
            check Alcotest.bool (c.name ^ ": accepted") true
              (Rup.check clauses log);
            check Alcotest.bool (c.name ^ ": empty clause missing") false
              (Rup.check clauses (without_last log));
            if List.length log > 1 then begin
              incr branched;
              check Alcotest.bool (c.name ^ ": lemmas dropped") false
                (Rup.check clauses [ [||] ])
            end
        | Absence.Model _ ->
            let cnf =
              Absence.ground ~budget:Budget.unlimited c.theory c.query sp
            in
            check Alcotest.bool (c.name ^ ": satisfiable, not refuted") false
              (Rup.check cnf.Absence.clauses [ [||] ]))
    all_cases;
  check Alcotest.bool "refutations checked" true (!logs > 8);
  check Alcotest.bool "some refutations branch" true (!branched > 0)

(* A hand-made formula whose refutation needs decisions.  With a = 4,
   b = 3, c = 2, e = 1: (a | b), (a | -b) and the four clauses
   (-a | +-c | +-e).  The solver branches a, then b (irrelevant), then c,
   false first; each false branch that fails logs "decisions -> v", each
   failed decision logs its negated decisions. *)
let formula =
  {
    Absence.num_vars = 4;
    clauses =
      [ [| 4; 3 |]; [| 4; -3 |]; [| -4; 2; 1 |]; [| -4; -2; 1 |];
        [| -4; 2; -1 |]; [| -4; -2; -1 |] ];
  }

let lemmas = Alcotest.(list (list int))
let sorted = List.map (fun c -> List.sort compare (Array.to_list c))

let test_checker_rejects_tampering () =
  let log =
    match Absence.solve ~on_decision:ignore ~branch:4 formula with
    | Absence.Unsat log -> log
    | Absence.Sat _ -> Alcotest.fail "the formula is unsatisfiable"
  in
  check lemmas "solver log"
    [ [ 4 ]; [ -4; 2; 3 ]; [ -4; 3 ]; [ -4; -3; 2 ]; [ -4; -3 ]; [ -4 ]; [] ]
    (sorted log);
  let ok = Rup.check formula.Absence.clauses in
  check Alcotest.bool "accepted" true (ok log);
  (* "a & -b -> c": the lemma of the failed node c under a, -b needs it *)
  check Alcotest.bool "needed lemma dropped" false
    (ok (List.filteri (fun i _ -> i <> 1) log));
  check Alcotest.bool "literal flipped" false
    (ok ([| -4 |] :: List.tl log));
  check Alcotest.bool "empty clause missing" false (ok (without_last log));
  (* e is not implied by propagation: assuming -e propagates nothing *)
  check Alcotest.bool "unimplied lemma first" false (ok ([| 1 |] :: log));
  check Alcotest.bool "lemma after the empty clause" false
    (ok (log @ [ [| 1 |] ]));
  check Alcotest.bool "no log" false (ok [])

(* -------------------------------------------------------------------- *)
(* Grounding fidelity                                                    *)
(* -------------------------------------------------------------------- *)

(* The clauses under an assignment of the [k] fact variables, each
   auxiliary taking the conjunction of the facts its definition clauses
   [-aux | v] imply (its strongest consistent value). *)
let satisfied k cnf bits =
  let value = Array.make (cnf.Absence.num_vars + 1) true in
  Array.iteri (fun i b -> value.(i + 1) <- b) bits;
  List.iter
    (function
      | [| a; v |] when -a > k -> value.(-a) <- value.(-a) && value.(v)
      | _ -> ())
    cnf.Absence.clauses;
  List.for_all
    (Array.exists (fun l -> if l > 0 then value.(l) else not value.(-l)))
    cnf.Absence.clauses

let test_grounding_fidelity () =
  let st = Random.State.make [| 17 |] in
  let checked = ref 0 in
  List.iter
    (fun c ->
      let sp = Absence.space ~max_extra:c.max_extra c.theory c.db in
      let k = Array.length sp.Absence.candidates in
      if k <= 12 then begin
        let cnf = Absence.ground ~budget:Budget.unlimited c.theory c.query sp in
        for _ = 1 to 40 do
          let bits = Array.init k (fun _ -> Random.State.bool st) in
          let inst = Instance.copy sp.Absence.base in
          Array.iteri
            (fun i f -> if bits.(i) then ignore (Instance.add_fact inst f))
            sp.Absence.candidates;
          incr checked;
          check Alcotest.bool (c.name ^ ": clauses iff countermodel")
            (Model_check.is_model c.theory inst
            && not (Eval.holds inst c.query))
            (satisfied k cnf bits)
        done
      end)
    all_cases;
  check Alcotest.bool "assignments checked" true (!checked > 2_000)

(* -------------------------------------------------------------------- *)
(* Budget and registry                                                   *)
(* -------------------------------------------------------------------- *)

let sec55 = Option.get (Zoo.find "sec55")

let sec55_absence ?budget () =
  Naive.exhaustive_absence ?budget ~max_candidates:20 ~max_extra:1
    sec55.Zoo.theory (Zoo.database_instance sec55) sec55.Zoo.query

let delta f =
  let before = Obs.Metrics.snapshot () in
  let r = f () in
  let d = Obs.Metrics.ints_delta ~before ~after:(Obs.Metrics.snapshot ()) in
  (r, fun name -> Option.value (List.assoc_opt name d) ~default:0)

let test_expired_deadline () =
  match sec55_absence ~budget:(Budget.v ~deadline_s:(-1.0) ()) () with
  | Naive.Absence_exhausted Budget.Deadline -> ()
  | r -> Alcotest.failf "expected a deadline trip, got %s" (kind r)

let test_node_fuel () =
  let _, count = delta (fun () -> sec55_absence ()) in
  let clauses = count "naive.absence_clauses" in
  match sec55_absence ~budget:(Budget.v ~nodes:(clauses - 1) ()) () with
  | Naive.Absence_exhausted Budget.Nodes -> ()
  | r -> Alcotest.failf "expected node fuel to trip, got %s" (kind r)

(* naive.nodes is the sum of the units it stands for: search nodes,
   ground clauses and solver decisions — here across a judge that runs
   the search and then the absence proof. *)
let test_nodes_reconcile () =
  let search_nodes = ref 0 in
  let judged, count =
    delta (fun () ->
        let (_ : Naive.search_result), c =
          delta (fun () ->
              Naive.search sec55.Zoo.theory (Zoo.database_instance sec55)
                sec55.Zoo.query)
        in
        search_nodes := c "naive.nodes";
        ignore (sec55_absence ());
        (* a case that needs decisions *)
        run (List.nth crafted_cases 3))
  in
  check Alcotest.string "refuted" "no model" (kind judged);
  check Alcotest.bool "the solver branched" true
    (count "naive.absence_decisions" > 0);
  check Alcotest.int "naive.nodes = search + clauses + decisions"
    (!search_nodes + count "naive.absence_clauses"
    + count "naive.absence_decisions")
    (count "naive.nodes");
  check Alcotest.bool "exhaustive timed" true
    (match
       Obs.Metrics.find_timer (Obs.Metrics.snapshot ()) "naive.exhaustive"
     with
    | Some (n, _) -> n >= 2
    | None -> false)

let suite =
  ( "absence",
    [ tc "agrees with the 2^k enumerator" test_agrees_with_enumerator;
      tc "checker accepts every solver log" test_checker_accepts_solver_logs;
      tc "checker rejects tampered logs" test_checker_rejects_tampering;
      tc "grounding fidelity" test_grounding_fidelity;
      tc "expired deadline" test_expired_deadline;
      tc "node fuel below the clause count" test_node_fuel;
      tc "naive.nodes reconciles" test_nodes_reconcile;
    ] )
