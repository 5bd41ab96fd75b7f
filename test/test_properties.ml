(* Property-based tests (qcheck, registered as alcotest cases).

   Generators build random atoms, queries, rules, theories and instances
   over a small binary vocabulary, and the properties pin down the core
   algebraic laws: substitution composition, unifier correctness,
   containment soundness, chase monotonicity and fixpoints, quotient
   homomorphism, refinement monotonicity, rewriting soundness, and
   certificate honesty. *)

open Bddfc_logic
open Bddfc_structure
open Bddfc_hom
open Bddfc_chase
open Bddfc_ptp
open Bddfc_workload

(* ------------------------------------------------------------------ *)
(* Generators                                                          *)
(* ------------------------------------------------------------------ *)

let var_gen = QCheck.Gen.oneofl [ "X"; "Y"; "Z"; "W"; "V" ]
let const_gen = QCheck.Gen.oneofl [ "a"; "b"; "c" ]
let pred2_gen = QCheck.Gen.oneofl [ "e"; "r"; "f" ]
let pred1_gen = QCheck.Gen.oneofl [ "p"; "q" ]

let term_gen =
  QCheck.Gen.(
    frequency
      [ (3, map Term.var var_gen); (1, map Term.cst const_gen) ])

let atom_gen =
  QCheck.Gen.(
    frequency
      [ (3,
         map3 (fun p t1 t2 -> Atom.app p [ t1; t2 ]) pred2_gen term_gen term_gen);
        (1, map2 (fun p t -> Atom.app p [ t ]) pred1_gen term_gen);
      ])

let atoms_gen = QCheck.Gen.(list_size (int_range 1 4) atom_gen)

let cq_gen = QCheck.Gen.map Cq.boolean atoms_gen

let ground_atom_gen =
  QCheck.Gen.(
    frequency
      [ (3,
         map3
           (fun p c1 c2 -> Atom.app p [ Term.cst c1; Term.cst c2 ])
           pred2_gen const_gen const_gen);
        (1, map2 (fun p c -> Atom.app p [ Term.cst c ]) pred1_gen const_gen);
      ])

let instance_gen =
  QCheck.Gen.map Instance.of_atoms
    QCheck.Gen.(list_size (int_range 1 8) ground_atom_gen)

let subst_gen =
  QCheck.Gen.(
    map Subst.of_bindings
      (list_size (int_range 0 3) (pair var_gen term_gen)))

(* A random rule: nonempty body, head sharing some variables. *)
let rule_gen =
  QCheck.Gen.(
    atoms_gen >>= fun body ->
    atom_gen >>= fun head ->
    (* ensure the frontier is nonempty often enough by a repair step:
       replace the head's first variable with a body variable if any *)
    let body_vars = Sset.elements (Atom.vars_of_atoms body) in
    let head =
      match (body_vars, Atom.vars head) with
      | bv :: _, hv :: _ ->
          Atom.map_terms
            (fun t -> if Term.equal t (Term.Var hv) then Term.Var bv else t)
            head
      | _ -> head
    in
    return (Rule.make ~name:"r1" ~body ~head:[ head ] ()))

let theory_gen =
  QCheck.Gen.map
    (fun rules ->
      Theory.make
        (List.mapi
           (fun i r -> { r with Rule.name = Printf.sprintf "r%d" (i + 1) })
           rules))
    QCheck.Gen.(list_size (int_range 1 3) rule_gen)

let make_test ?(count = 100) name gen prop =
  QCheck_alcotest.to_alcotest (QCheck.Test.make ~count ~name gen prop)

let arb gen print = QCheck.make gen ~print

(* ------------------------------------------------------------------ *)
(* Properties                                                          *)
(* ------------------------------------------------------------------ *)

(* Substitution composition law: (s1; s2) t = s2 (s1 t). *)
let prop_subst_compose =
  make_test "subst compose law"
    (arb
       QCheck.Gen.(triple subst_gen subst_gen term_gen)
       (fun (s1, s2, t) ->
         Printf.sprintf "%s %s %s" (Subst.show s1) (Subst.show s2) (Term.show t)))
    (fun (s1, s2, t) ->
      Term.equal
        (Subst.apply_term (Subst.compose s1 s2) t)
        (Subst.apply_term s2 (Subst.apply_term s1 t)))

(* A solved mgu really unifies. *)
let prop_mgu_unifies =
  make_test "mgu unifies"
    (arb
       QCheck.Gen.(pair atom_gen atom_gen)
       (fun (a1, a2) -> Atom.show a1 ^ " ~ " ^ Atom.show a2))
    (fun (a1, a2) ->
      match Unify.mgu_atoms a1 a2 with
      | None -> true
      | Some s -> Atom.equal (Subst.apply_atom s a1) (Subst.apply_atom s a2))

(* Containment is reflexive and transitive on random queries. *)
let prop_containment_reflexive =
  make_test "containment reflexive" (arb cq_gen Cq.show) (fun q ->
      Containment.subsumes ~general:q q)

let prop_containment_sound =
  (* if general subsumes specific then on every instance specific -> general *)
  make_test ~count:60 "containment sound on instances"
    (arb
       QCheck.Gen.(triple cq_gen cq_gen instance_gen)
       (fun (q1, q2, inst) ->
         Cq.show q1 ^ " | " ^ Cq.show q2 ^ " | " ^ Instance.show inst))
    (fun (q1, q2, inst) ->
      (not (Containment.subsumes ~general:q1 q2))
      || (not (Eval.holds inst q2))
      || Eval.holds inst q1)

(* Minimization preserves satisfaction on random instances. *)
let prop_minimize_equivalent =
  make_test ~count:60 "minimize preserves satisfaction"
    (arb
       QCheck.Gen.(pair cq_gen instance_gen)
       (fun (q, inst) -> Cq.show q ^ " | " ^ Instance.show inst))
    (fun (q, inst) ->
      Eval.holds inst q = Eval.holds inst (Containment.minimize q))

(* The chase only adds facts (monotone) and its fixpoint is a model. *)
let prop_chase_monotone =
  make_test ~count:50 "chase is monotone"
    (arb
       QCheck.Gen.(pair theory_gen instance_gen)
       (fun (t, inst) -> Theory.show t ^ "\n" ^ Instance.show inst))
    (fun (t, inst) ->
      let r = Chase.run ~max_rounds:4 ~max_elements:500 t inst in
      List.for_all (Instance.mem_fact r.Chase.instance) (Instance.facts inst))

let prop_chase_fixpoint_is_model =
  make_test ~count:50 "chase fixpoint is a model"
    (arb
       QCheck.Gen.(pair theory_gen instance_gen)
       (fun (t, inst) -> Theory.show t ^ "\n" ^ Instance.show inst))
    (fun (t, inst) ->
      let r = Chase.run ~max_rounds:12 ~max_elements:500 t inst in
      (not (Chase.is_model r))
      || Bddfc_finitemodel.Model_check.is_model t r.Chase.instance)

(* Certain answers are monotone in the database. *)
let prop_certain_monotone =
  make_test ~count:40 "certain answers monotone"
    (arb
       QCheck.Gen.(triple theory_gen instance_gen ground_atom_gen)
       (fun (t, inst, extra) ->
         Theory.show t ^ "\n" ^ Instance.show inst ^ "\n" ^ Atom.show extra))
    (fun (t, inst, extra) ->
      let query =
        Cq.boolean
          [ Atom.app "e" [ Term.var "QX"; Term.var "QY" ] ]
      in
      let c1 = Chase.certain ~max_rounds:4 ~max_elements:300 t inst query in
      let bigger = Instance.copy inst in
      ignore (Instance.add_atom bigger extra);
      let c2 = Chase.certain ~max_rounds:4 ~max_elements:300 t bigger query in
      match (c1, c2) with
      | Chase.Entailed _, Chase.Not_entailed -> false
      | _ -> true)

(* Quotient projection is a homomorphism (Lemma 1 / Definition 5). *)
let prop_quotient_hom =
  make_test ~count:60 "quotient projection is a homomorphism"
    (arb
       QCheck.Gen.(pair instance_gen (int_range 0 3))
       (fun (inst, d) -> Instance.show inst ^ " depth " ^ string_of_int d))
    (fun (inst, depth) ->
      let g = Bgraph.make inst in
      let r = Refine.compute ~depth g in
      let qt = Quotient.of_refinement inst r in
      List.for_all
        (fun f ->
          Instance.mem_fact qt.Quotient.quotient
            (Fact.make (Fact.pred f)
               (Array.map (Quotient.project qt) (Fact.args f))))
        (Instance.facts inst))

(* Deeper refinement never merges what shallower refinement separates. *)
let prop_refine_monotone =
  make_test ~count:60 "refinement monotone"
    (arb instance_gen Instance.show)
    (fun inst ->
      let g = Bgraph.make inst in
      let r1 = Refine.compute ~depth:1 g in
      let r2 = Refine.compute ~depth:2 g in
      List.for_all
        (fun d ->
          List.for_all
            (fun e ->
              (not (Refine.equivalent r2 d e)) || Refine.equivalent r1 d e)
            (Instance.elements inst))
        (Instance.elements inst))

(* Exact types: equivalence at k implies equivalence at k-1. *)
let prop_ptypes_monotone =
  make_test ~count:30 "ptypes monotone in vars"
    (arb instance_gen Instance.show)
    (fun inst ->
      let elems = Instance.elements inst in
      List.for_all
        (fun d ->
          List.for_all
            (fun e ->
              (not (Ptypes.equiv ~vars:3 inst d e))
              || Ptypes.equiv ~vars:2 inst d e)
            elems)
        elems)

(* Homomorphism found => verified. *)
let prop_hom_verified =
  make_test ~count:50 "found homomorphisms verify"
    (arb
       QCheck.Gen.(pair instance_gen instance_gen)
       (fun (s, t) -> Instance.show s ^ " -> " ^ Instance.show t))
    (fun (src, tgt) ->
      match Hom.find src tgt with
      | None -> true
      | Some m -> Hom.is_homomorphism src tgt m)

(* Rewriting soundness: if the rewriting holds on D then the query is
   certain (checked by chase). *)
let prop_rewrite_sound =
  make_test ~count:30 "rewriting sound vs chase"
    (arb
       QCheck.Gen.(pair instance_gen cq_gen)
       (fun (inst, q) -> Instance.show inst ^ " | " ^ Cq.show q))
    (fun (inst, query) ->
      let t =
        Parser.parse_theory
          {| e(X,Y) -> exists Z. e(Y,Z).
             e(X,Y) -> r(Y,X). |}
      in
      let r =
        Bddfc_rewriting.Rewrite.rewrite ~max_disjuncts:60 ~max_steps:800 t query
      in
      (not (Bddfc_rewriting.Rewrite.ucq_holds inst r.Bddfc_rewriting.Rewrite.ucq))
      || (match Chase.certain ~max_rounds:12 ~max_elements:500 t inst query with
         | Chase.Entailed _ -> true
         | Chase.Not_entailed -> false
         | Chase.Unknown _ -> true (* cannot refute *)))

(* Parser round-trip on random rules. *)
let prop_parser_roundtrip =
  make_test "parser round-trip on rules" (arb rule_gen Rule.show)
    (fun r ->
      let r' = Parser.parse_rule (Rule.show r ^ ".") in
      Rule.equal { r with name = "x" } { r' with name = "x" })

(* Pipeline honesty: whatever it returns verifies. *)
let prop_pipeline_honest =
  make_test ~count:15 "pipeline output always verifies"
    (arb
       QCheck.Gen.(oneofl [ "ex1"; "ex7"; "ex9"; "linear"; "sticky"; "weakly_acyclic" ])
       (fun s -> s))
    (fun name ->
      let e = Option.get (Zoo.find name) in
      match
        Bddfc_finitemodel.Pipeline.construct e.Zoo.theory
          (Zoo.database_instance e) e.Zoo.query
      with
      | Bddfc_finitemodel.Pipeline.Model (cert, _) ->
          Bddfc_finitemodel.Certificate.is_valid cert
      | _ -> true)

let suite =
  ( "properties",
    [ prop_subst_compose;
      prop_mgu_unifies;
      prop_containment_reflexive;
      prop_containment_sound;
      prop_minimize_equivalent;
      prop_chase_monotone;
      prop_chase_fixpoint_is_model;
      prop_certain_monotone;
      prop_quotient_hom;
      prop_refine_monotone;
      prop_ptypes_monotone;
      prop_hom_verified;
      prop_rewrite_sound;
      prop_parser_roundtrip;
      prop_pipeline_honest;
    ] )

(* Metamorphic observability property: tracing is semantically inert.
   Running the same chase with the span collector installed must produce
   the same outcome and instance fingerprint as running it with tracing
   disabled, and the always-on registry counters must move by exactly the
   same amounts — events and attributes are a read-only window, never an
   input, to the engines. *)
let obs_fingerprint (t, inst) =
  let module M = Bddfc_obs.Obs.Metrics in
  let module T = Bddfc_obs.Obs.Trace in
  let observe () =
    let before = M.snapshot () in
    let r =
      Chase.run ~max_rounds:8 ~max_elements:2_000 t (Instance.copy inst)
    in
    let delta = M.ints_delta ~before ~after:(M.snapshot ()) in
    let fp =
      ( r.Chase.rounds,
        Instance.num_facts r.Chase.instance,
        Instance.num_elements r.Chase.instance,
        r.Chase.new_facts_per_round )
    in
    (fp, delta)
  in
  T.set_sink None;
  let off = observe () in
  let collector = T.install_collector () in
  let on = observe () in
  T.set_sink None;
  ignore collector;
  (off, on)

let prop_tracing_inert =
  make_test ~count:70 "tracing is semantically inert"
    (arb
       QCheck.Gen.(pair theory_gen instance_gen)
       (fun (t, inst) -> Theory.show t ^ "\n" ^ Instance.show inst))
    (fun ti ->
      let (fp_off, delta_off), (fp_on, delta_on) = obs_fingerprint ti in
      fp_off = fp_on && delta_off = delta_on)

(* Fuzzing the pipeline's honesty over pseudo-random binary frontier-one
   theories and instances: whatever it answers, the answer verifies.
   A Model must pass the certificate checker; a Query_entailed must be
   confirmed by an independent chase; Unknown is always acceptable. *)
let prop_pipeline_fuzz =
  make_test ~count:25 "pipeline honest on random theories"
    (arb QCheck.Gen.(pair (int_range 0 1000) (int_range 0 1000))
       (fun (s1, s2) -> Printf.sprintf "seeds %d %d" s1 s2))
    (fun (s1, s2) ->
      let theory = Gen.random_binary_theory ~rules:4 ~seed:s1 () in
      let d = Gen.random_instance ~facts:4 ~seed:s2 () in
      let query = Cq.boolean [ Atom.app "e" [ Term.var "QX"; Term.var "QX" ] ] in
      let params =
        { Bddfc_finitemodel.Pipeline.default_params with
          chase_depth = 12;
          depth_growth = [ 1; 2 ];
          max_chase_elements = 2_000;
        }
      in
      match Bddfc_finitemodel.Pipeline.construct ~params theory d query with
      | Bddfc_finitemodel.Pipeline.Model (cert, _) ->
          Bddfc_finitemodel.Certificate.is_valid cert
      | Bddfc_finitemodel.Pipeline.Query_entailed _ -> (
          match Chase.certain ~max_rounds:24 ~max_elements:4_000 theory d query with
          | Chase.Entailed _ -> true
          | Chase.Not_entailed -> false
          | Chase.Unknown _ -> true)
      | Bddfc_finitemodel.Pipeline.Unknown _ -> true)

let suite =
  let name, tests = suite in
  ( name,
    tests
    @ [ prop_tracing_inert; prop_pipeline_fuzz ] )
