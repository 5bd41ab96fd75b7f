(* Tests for chase provenance: fidelity to the chase, record-stream
   validity, counter reconciliation, derivation trees, depths. *)

open Bddfc_logic
open Bddfc_structure
open Bddfc_chase
open Bddfc_workload
module Obs = Bddfc_obs.Obs

let check = Alcotest.check
let tc name f = Alcotest.test_case name `Quick f

let th src = Parser.parse_theory src
let db src = Instance.of_atoms (Parser.parse_atoms src)

let find_fact inst name args =
  let p = Pred.make name (List.length args) in
  let ids = List.map (fun c -> Option.get (Instance.const_opt inst c)) args in
  Fact.make p (Array.of_list ids)

let test_replay_matches_chase () =
  (* the recorded run is the chase: same facts, same elements, and every
     null keeps the parent the skeleton forest needs.  The second case
     has two rules demanding one head instance — a single witness. *)
  List.iter
    (fun (t, d) ->
      let t = th t and d = db d in
      let direct = Chase.run t d in
      let prov = Provenance.run t d in
      let parents inst =
        List.map (Instance.parent inst) (Instance.elements inst)
      in
      check Alcotest.bool "same fixpoint state" true prov.Provenance.saturated;
      check Alcotest.int "same facts"
        (Instance.num_facts direct.Chase.instance)
        (Instance.num_facts prov.Provenance.instance);
      check Alcotest.int "same elements"
        (Instance.num_elements direct.Chase.instance)
        (Instance.num_elements prov.Provenance.instance);
      check
        Alcotest.(list (option int))
        "same null parents"
        (parents direct.Chase.instance)
        (parents prov.Provenance.instance))
    [
      ( "p(X) -> exists Y. e(X,Y). e(X,Y) -> q(Y). q(Y) -> r(Y).",
        "p(a). p(b)." );
      ("a(X) -> exists Y. r(X,Y). b(X) -> exists Y. r(X,Y).", "a(c). b(c).");
    ]

(* Record-stream validity, the seed of an independent derivation
   checker: every recorded derivation is a trigger application on the
   chased instance — its body facts were born before its round, its head
   fact was born in it, and the named rule's body maps onto the recorded
   body facts.  Every fact has a reason, and only base facts are given. *)
let body_maps inst rule body =
  let rec go binding atoms facts =
    match (atoms, facts) with
    | [], [] -> true
    | a :: atoms, f :: facts
      when Pred.equal (Atom.pred a) (Fact.pred f)
           && List.length (Atom.args a) = Array.length (Fact.args f) -> (
        let bind binding (t, id) =
          Option.bind binding (fun binding ->
              match t with
              | Term.Cst c ->
                  if Instance.const_opt inst c = Some id then Some binding
                  else None
              | Term.Var x -> (
                  match Smap.find_opt x binding with
                  | Some id' -> if id = id' then Some binding else None
                  | None -> Some (Smap.add x id binding)))
        in
        match
          List.fold_left bind (Some binding)
            (List.combine (Atom.args a) (Array.to_list (Fact.args f)))
        with
        | Some binding -> go binding atoms facts
        | None -> false)
    | _ -> false
  in
  go Smap.empty (Rule.body rule) body

let check_stream name theory (p : Provenance.t) =
  let inst = p.Provenance.instance in
  let birth = Instance.fact_birth inst in
  check Alcotest.int (name ^ ": every fact has a reason")
    (Instance.num_facts inst)
    (Fact.Table.length p.Provenance.reasons);
  Fact.Table.iter
    (fun f reason ->
      let fact = Fmt.str "%s: %a" name Fact.pp f in
      check Alcotest.bool (fact ^ " is in the instance") true
        (Instance.mem_fact inst f);
      match reason with
      | Provenance.Given ->
          check Alcotest.int (fact ^ ": given at birth 0") 0 (birth f)
      | Provenance.Derived { rule; round; body } ->
          check Alcotest.int (fact ^ ": born in its round") round (birth f);
          List.iter
            (fun b ->
              check Alcotest.bool (fact ^ ": body fact present") true
                (Instance.mem_fact inst b);
              check Alcotest.bool (fact ^ ": body born earlier") true
                (birth b < round))
            body;
          check Alcotest.bool (fact ^ ": " ^ rule ^ " maps onto the body")
            true
            (List.exists
               (fun r -> Rule.name r = rule && body_maps inst r body)
               (Theory.rules theory)))
    p.Provenance.reasons

let test_stream_validity () =
  let cases =
    List.map
      (fun (e : Zoo.entry) ->
        (e.Zoo.name, e.Zoo.theory, Zoo.database_instance e, 8, 2_000))
      Zoo.all
    @ List.init 50 (fun seed ->
          ( Printf.sprintf "seed %d" seed,
            Gen.random_binary_theory ~rules:4 ~seed (),
            Gen.random_instance ~facts:4 ~seed:(seed + 1000) (),
            6,
            400 ))
  in
  List.iter
    (fun (name, theory, d, max_rounds, max_elements) ->
      check_stream name theory
        (Provenance.run ~max_rounds ~max_elements theory d))
    cases

let test_counters_reconcile () =
  (* recording is free of accounting side effects: the chase.* counters
     move by exactly a plain run's deltas *)
  let keys =
    [ "chase.runs"; "chase.rounds"; "chase.facts_added";
      "chase.nulls_invented" ]
  in
  let deltas f =
    let before = Obs.Metrics.snapshot () in
    ignore (f ());
    let after = Obs.Metrics.snapshot () in
    let delta = Obs.Metrics.ints_delta ~before ~after in
    List.map
      (fun k -> (k, Option.value ~default:0 (List.assoc_opt k delta)))
      keys
  in
  List.iter
    (fun (t, d) ->
      let t = th t and d = db d in
      check
        Alcotest.(list (pair string int))
        "same counter deltas"
        (deltas (fun () -> Chase.run ~max_rounds:6 t d))
        (deltas (fun () -> Provenance.run ~max_rounds:6 t d)))
    [
      ("a(X) -> exists Y. r(X,Y). b(X) -> exists Y. r(X,Y).", "a(c). b(c).");
      ("e(X,Y) -> exists Z. e(Y,Z). e(X,Y), e(Y,Z) -> p(X,Z).", "e(a,b).");
    ];
  check (Alcotest.option Alcotest.int) "no replay counter" None
    (Obs.Metrics.find_int (Obs.Metrics.snapshot ()) "provenance.replays")

let test_reasons () =
  let t = th "p(X) -> exists Y. e(X,Y). e(X,Y) -> q(Y)." in
  let d = db "p(a)." in
  let prov = Provenance.run t d in
  let inst = prov.Provenance.instance in
  let given = find_fact inst "p" [ "a" ] in
  (match Provenance.reason_of prov given with
  | Some Provenance.Given -> ()
  | _ -> Alcotest.fail "p(a) is given");
  (* the q fact was derived by the datalog rule from the e fact *)
  let q_fact =
    List.find
      (fun f -> Pred.name (Fact.pred f) = "q")
      (Instance.facts inst)
  in
  match Provenance.reason_of prov q_fact with
  | Some (Provenance.Derived { rule = _; round; body }) ->
      check Alcotest.int "one body fact" 1 (List.length body);
      check Alcotest.bool "derived after round 1" true (round >= 2);
      check Alcotest.string "body is the e fact" "e"
        (Pred.name (Fact.pred (List.hd body)))
  | _ -> Alcotest.fail "q fact must be derived"

let test_explain_tree () =
  let t = th "p(X) -> exists Y. e(X,Y). e(X,Y) -> q(Y)." in
  let prov = Provenance.run t (db "p(a).") in
  let inst = prov.Provenance.instance in
  let q_fact =
    List.find (fun f -> Pred.name (Fact.pred f) = "q") (Instance.facts inst)
  in
  match Provenance.explain prov q_fact with
  | Some (Provenance.Node (_, _, [ Provenance.Node (_, _, [ Provenance.Leaf _ ]) ]))
    ->
      ()
  | Some other ->
      Alcotest.failf "unexpected tree shape: %s"
        (Fmt.to_to_string Provenance.pp_tree other)
  | None -> Alcotest.fail "expected a derivation tree"

let test_depths () =
  let t = th "p(X) -> exists Y. e(X,Y). e(X,Y) -> q(Y). q(Y) -> r(Y)." in
  let prov = Provenance.run t (db "p(a).") in
  let inst = prov.Provenance.instance in
  let depth_of name =
    Provenance.depth prov
      (List.find (fun f -> Pred.name (Fact.pred f) = name) (Instance.facts inst))
  in
  check Alcotest.int "p at 0" 0 (depth_of "p");
  check Alcotest.int "e at 1" 1 (depth_of "e");
  check Alcotest.int "q at 2" 2 (depth_of "q");
  check Alcotest.int "r at 3" 3 (depth_of "r");
  check Alcotest.int "max depth" 3 (Provenance.max_depth prov)

let test_depth_on_infinite_prefix () =
  (* on a chain prefix, the deepest skeleton atom has depth = rounds *)
  let t = th "e(X,Y) -> exists Z. e(Y,Z)." in
  let prov = Provenance.run ~max_rounds:6 t (db "e(a,b).") in
  check Alcotest.bool "not saturated" false prov.Provenance.saturated;
  check Alcotest.int "depth equals rounds" 6 (Provenance.max_depth prov)

let test_bdd_depth_bound () =
  (* the BDD connection: for Example 1's theory, the depth at which a
     query becomes true is bounded — certain answers at bounded depth *)
  let t =
    th
      {| e(X,Y) -> exists Z. e(Y,Z).
         e(X,Y), e(Y,Z), e(Z,X) -> exists T. u(X,T). |}
  in
  let prov = Provenance.run ~max_rounds:8 t (db "e(a,b). e(b,c). e(c,a).") in
  let inst = prov.Provenance.instance in
  let u_fact =
    List.find (fun f -> Pred.name (Fact.pred f) = "u") (Instance.facts inst)
  in
  check Alcotest.int "u derived at depth 1" 1 (Provenance.depth prov u_fact)

let suite =
  ( "provenance",
    [ tc "replay matches the chase" test_replay_matches_chase;
      tc "record stream is valid" test_stream_validity;
      tc "counters reconcile with a plain run" test_counters_reconcile;
      tc "reasons recorded" test_reasons;
      tc "derivation trees" test_explain_tree;
      tc "derivation depths" test_depths;
      tc "depth on an infinite prefix" test_depth_on_infinite_prefix;
      tc "BDD depth bound (Example 1)" test_bdd_depth_bound;
    ] )
