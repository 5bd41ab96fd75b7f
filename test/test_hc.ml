(* The hash-consed store and the containment backends under adversarial
   test: the differential fuzzing battery.

   The contract has three layers, and each gets its own suite below.

   Unique table: interning is idempotent, structurally-equal and
   α-equivalent queries share an id, distinct ids imply structurally
   distinct canonical forms, and source locations never reach the keys
   (the PR 3 loc-equality invariant, plus the PR 5 full-arity hashing
   discipline, would both fail silently — as duplicate nodes — if
   violated; the tests here make them loud).

   Backends: every containment / rewriting / ptype / pipeline / judge
   entry point must be observationally identical under [Hc.Interned]
   and [Hc.Structural], over the zoo, over seeded random theories and
   queries, and — the sharp edge — at every deterministic fuel-trap
   point, since a skipped budget charge would shift trip points between
   modes.  Containment keeps no process-wide state: κ, the judge and
   the certificate path leave the store empty.

   Observability: hits never exceed lookups, every containment pair is
   an index reject or a search, identical workloads from a reset store
   move the counters identically, tracing on/off leaves them inert, and
   a serve session rebuilt after eviction answers byte for byte as
   before. *)

open Bddfc_budget
open Bddfc_logic
open Bddfc_structure
open Bddfc_chase
open Bddfc_hom
open Bddfc_ptp
open Bddfc_finitemodel
open Bddfc_workload
module Rewrite = Bddfc_rewriting.Rewrite
module Obs = Bddfc_obs.Obs
module M = Obs.Metrics
module T = Obs.Trace
module Json = Obs.Json
module Server = Bddfc_serve.Server

let check = Alcotest.check
let tc name f = Alcotest.test_case name `Quick f
let cq = Alcotest.testable Cq.pp Cq.equal
let th src = Parser.parse_theory src
let db src = Instance.of_atoms (Parser.parse_atoms src)
let minimize q = Containment.(query (minimize (prepare q)))

(* ----------------------------------------------------------------- *)
(* A seeded random-CQ generator over the Gen.random_binary_theory     *)
(* vocabulary, so fuzzed queries exercise the same signature as the   *)
(* fuzzed theories.                                                   *)
(* ----------------------------------------------------------------- *)

let binaries = [| "e"; "r"; "f" |]
let unaries = [| "p"; "q" |]
let consts = [| "a"; "b"; "c" |]
let var_pool = [| "X"; "Y"; "Z"; "U"; "V"; "W" |]

let random_term st =
  if Random.State.int st 4 = 0 then
    Term.cst consts.(Random.State.int st (Array.length consts))
  else Term.var var_pool.(Random.State.int st (Array.length var_pool))

let random_atom st =
  if Random.State.bool st then
    Atom.app binaries.(Random.State.int st (Array.length binaries))
      [ random_term st; random_term st ]
  else Atom.app unaries.(Random.State.int st (Array.length unaries))
      [ random_term st ]

let random_cq st =
  let body = List.init (1 + Random.State.int st 7) (fun _ -> random_atom st) in
  let vars = Cq.SS.elements (Atom.vars_of_atoms body) in
  let n_ans = Random.State.int st (min 3 (List.length vars) + 1) in
  let answer = List.filteri (fun i _ -> i < n_ans) vars in
  Cq.make ~answer body

(* An explicit α-variant: every variable prefixed, order preserved. *)
let alpha_variant q =
  let ren v = Term.Var ("Renamed_" ^ v) in
  let body =
    List.map
      (Atom.map_terms (function Term.Var v -> ren v | c -> c))
      (Cq.body q)
  in
  Cq.make ~answer:(List.map (fun v -> "Renamed_" ^ v) (Cq.answer q)) body

(* ----------------------------------------------------------------- *)
(* Unique-table properties                                            *)
(* ----------------------------------------------------------------- *)

let test_intern_idempotent () =
  for seed = 0 to 99 do
    let st = Random.State.make [| seed; 11 |] in
    let q = random_cq st in
    let id1 = Hc.intern q in
    let id2 = Hc.intern q in
    check Alcotest.int "re-interning is the identity" id1 id2;
    (* the canonical representative interns to its own id *)
    check Alcotest.int "node round-trips" id1 (Hc.intern (Hc.node id1));
    (* the canonical form is α-equivalent to the input: same shape *)
    let canon, _ren = Hc.canonicalize q in
    check Alcotest.int "canonical form keeps the atom count"
      (Cq.num_atoms q) (Cq.num_atoms canon);
    check Alcotest.int "canonical form keeps the answer arity"
      (List.length (Cq.answer q)) (List.length (Cq.answer canon))
  done

let test_alpha_equivalent_same_node () =
  for seed = 0 to 99 do
    let st = Random.State.make [| seed; 23 |] in
    let q = random_cq st in
    let renamed, _ = Cq.rename_apart q in
    check Alcotest.int "rename_apart lands on the same node" (Hc.intern q)
      (Hc.intern renamed);
    check Alcotest.int "prefix renaming lands on the same node"
      (Hc.intern q)
      (Hc.intern (alpha_variant q));
    check Alcotest.bool "same reports the sharing" true (Hc.same q renamed)
  done

let test_distinct_ids_distinct_structure () =
  for seed = 0 to 99 do
    let st = Random.State.make [| seed; 37 |] in
    let q1 = random_cq st in
    let q2 = random_cq st in
    let c1 = fst (Hc.canonicalize q1) in
    let c2 = fst (Hc.canonicalize q2) in
    if Hc.intern q1 = Hc.intern q2 then
      check Alcotest.bool "shared id means equal canonical forms" true
        (Cq.equal c1 c2)
    else
      check Alcotest.bool "distinct ids mean distinct canonical forms" false
        (Cq.equal c1 c2)
  done

(* The PR 3 invariant, extended to the interner: [Atom.equal] ignores
   locations, so the unique-table hash must too — a loc-sensitive hash
   would file equal atoms under different buckets and silently issue
   duplicate ids for equal queries. *)
let test_locations_never_reach_the_keys () =
  let base = Atom.app "e" [ Term.var "X"; Term.var "Y" ] in
  let a1 = Atom.with_loc (Loc.make ~line:1 ~col:1) base in
  let a2 = Atom.with_loc (Loc.make ~line:99 ~col:42) base in
  check Alcotest.int "atom ids ignore locations" (Hc.intern_atom a1)
    (Hc.intern_atom a2);
  check Alcotest.int "cq ids ignore locations"
    (Hc.intern (Cq.make ~answer:[ "X" ] [ a1 ]))
    (Hc.intern (Cq.make ~answer:[ "X" ] [ a2 ]));
  (* and through the parser: the same query at different source
     positions carries different locs but interns identically *)
  let p1 = Parser.parse_query "? e(X,Y), r(Y,Z)." in
  let p2 = Parser.parse_query "\n\n      ? e(X,Y),    r(Y,Z)." in
  let loc_of q = Atom.loc (List.hd (Cq.body q)) in
  check Alcotest.bool "parser gave distinct locations" false
    (Loc.line (loc_of p1) = Loc.line (loc_of p2)
    && Loc.col (loc_of p1) = Loc.col (loc_of p2));
  check Alcotest.int "parsed queries share a node" (Hc.intern p1)
    (Hc.intern p2)

(* The PR 5 [Fact.hash] regression, mirrored: the atom hash must fold
   over every argument.  Wide atoms differing only in a late argument
   must intern to distinct, stable ids. *)
let test_full_arity_hashing () =
  let wide i =
    Atom.app "w"
      (List.init 11 (fun k -> Term.var ("P" ^ string_of_int k))
      @ [ Term.cst ("tail" ^ string_of_int i) ])
  in
  let ids = List.init 64 (fun i -> Hc.intern_atom (wide i)) in
  check Alcotest.int "late-argument variation keeps atoms distinct" 64
    (List.length (List.sort_uniq compare ids));
  check
    Alcotest.(list int)
    "re-interning is stable" ids
    (List.init 64 (fun i -> Hc.intern_atom (wide i)))

(* ----------------------------------------------------------------- *)
(* Containment: the fuzzing battery proper                            *)
(* ----------------------------------------------------------------- *)

let check_pair_agrees name q1 q2 =
  List.iter
    (fun (general, specific) ->
      check Alcotest.bool (name ^ ": subsumes verdicts agree")
        (Containment.subsumes ~hc:Hc.Structural ~general specific)
        (Containment.subsumes ~hc:Hc.Interned ~general specific))
    [ (q1, q2); (q2, q1); (q1, q1) ];
  List.iter
    (fun hc ->
      check cq
        (name ^ ": minimize agrees")
        (Reference_rewrite.minimize ~hc q1)
        (minimize q1))
    [ Hc.Structural; Hc.Interned ]

let test_fuzz_containment () =
  for seed = 0 to 239 do
    let st = Random.State.make [| seed; 101 |] in
    let q1 = random_cq st in
    let q2 = random_cq st in
    check_pair_agrees (Printf.sprintf "seed %d" seed) q1 q2;
    (* α-variants must get the same verdicts *)
    check_pair_agrees
      (Printf.sprintf "seed %d (alpha)" seed)
      (alpha_variant q1) q2
  done

(* The matcher against the structural oracle, over queries built to
   reach it: few variables, so that variables repeat within and across
   atoms; duplicated atoms; constants on one side only, or on both; and
   answer arities 0 to 3, an answer variable repeating when the query
   has fewer variables.  Each pair also meets its conjunction, which
   the first query always maps into and which maps back only
   sometimes.  Both sides are prepared [Interned] and the
   oracle runs [Structural], so the case means the same in both lanes;
   the search count shows that the pairs reach the matcher, not only
   the signatures. *)
let matcher_cq st ~consts ~arity =
  let term () =
    if consts && Random.State.int st 3 = 0 then
      Term.cst [| "a"; "b" |].(Random.State.int st 2)
    else Term.var [| "X"; "Y"; "Z"; "U" |].(Random.State.int st 4)
  in
  let atom () =
    match Random.State.int st 3 with
    | 0 -> Atom.app "p" [ term () ]
    | 1 -> Atom.app "e" [ term (); term () ]
    | _ -> Atom.app "t" [ term (); term (); term () ]
  in
  let rec body n acc =
    if n = 0 then acc
    else
      let a =
        match acc with
        | a :: _ when Random.State.int st 4 = 0 -> a
        | _ -> atom ()
      in
      body (n - 1) (a :: acc)
  in
  let rec with_vars () =
    let b = body (1 + Random.State.int st 6) [] in
    match Cq.SS.elements (Atom.vars_of_atoms b) with
    | [] when arity > 0 -> with_vars ()
    | vars ->
        let pick _ = List.nth vars (Random.State.int st (List.length vars)) in
        Cq.make ~answer:(List.init arity pick) b
  in
  with_vars ()

let test_fuzz_matcher () =
  let searches () =
    Option.value ~default:0 (M.find_int (M.snapshot ()) "containment.searches")
  in
  let contained = ref 0 and pairs = ref 0 and searched = ref 0 in
  for seed = 0 to 599 do
    let st = Random.State.make [| seed; 331 |] in
    let arity = seed mod 4 in
    let g = matcher_cq st ~consts:(seed mod 3 <> 1) ~arity in
    let s = matcher_cq st ~consts:(seed mod 3 <> 2) ~arity in
    let both = Cq.make ~answer:(Cq.answer g) (Cq.body g @ Cq.body s) in
    List.iter
      (fun (general, specific) ->
        incr pairs;
        let oracle = Containment.subsumes ~hc:Hc.Structural ~general specific in
        if oracle then incr contained;
        let s0 = searches () in
        check Alcotest.bool
          (Printf.sprintf "seed %d: the matcher agrees with the oracle" seed)
          oracle
          (Containment.prepared_subsumes
             ~general:(Containment.prepare ~hc:Hc.Interned general)
             (Containment.prepare ~hc:Hc.Interned specific));
        searched := !searched + searches () - s0)
      [ (g, s); (s, g); (g, g); (g, both); (both, g) ];
    List.iter
      (fun q ->
        check cq
          (Printf.sprintf "seed %d: minimize agrees with the oracle" seed)
          (Reference_rewrite.minimize ~hc:Hc.Structural q)
          (minimize q))
      [ g; s; both ]
  done;
  (* (g, g) and (g, both) are contained by construction *)
  check Alcotest.bool "both verdicts occur beyond the trivial pairs" true
    (!contained > 1200 && !contained < !pairs);
  check Alcotest.bool "a third of the pairs reach the matcher" true
    (3 * !searched > !pairs)

(* ----------------------------------------------------------------- *)
(* The atom-shape prefilter: a rejection is a proof of non-containment *)
(* ----------------------------------------------------------------- *)

let structural_subsumes ~general specific =
  Containment.subsumes ~hc:Hc.Structural ~general specific

(* The fuzzing battery's pairs (same seeds) and their α-variants: every
   rejection must be a pair the structural oracle refutes. *)
let test_prefilter_sound_fuzz () =
  let rejected = ref 0 in
  for seed = 0 to 239 do
    let st = Random.State.make [| seed; 101 |] in
    let q1 = random_cq st in
    let q2 = random_cq st in
    let a1 = alpha_variant q1 in
    List.iter
      (fun (general, specific) ->
        if Reference_shape.shape_rejects ~general specific then begin
          incr rejected;
          check Alcotest.bool
            (Printf.sprintf "seed %d: a rejected pair is not contained" seed)
            false
            (structural_subsumes ~general specific)
        end)
      [ (q1, q2); (q2, q1); (q1, q1); (a1, q2); (q2, a1); (a1, q1) ]
  done;
  check Alcotest.bool "the battery exercises the filter" true (!rejected > 100)

let shape_case name ~general specific ~rejects =
  let general = Parser.parse_query general in
  let specific = Parser.parse_query specific in
  check Alcotest.bool (name ^ ": shape verdict") rejects
    (Reference_shape.shape_rejects ~general specific);
  if rejects then
    check Alcotest.bool (name ^ ": the oracle agrees") false
      (structural_subsumes ~general specific)

let test_prefilter_crafted () =
  (* one case per condition, each with its passing twin *)
  shape_case "predicate" ~general:"? p(X)." "? q(X)." ~rejects:true;
  shape_case "predicate twin" ~general:"? p(X)." "? p(Y)." ~rejects:false;
  shape_case "constant" ~general:"? e(a,X)." "? e(b,Y)." ~rejects:true;
  shape_case "constant vs variable" ~general:"? e(a,X)." "? e(Y,Z)."
    ~rejects:true;
  shape_case "constant twin" ~general:"? e(a,X)." "? e(a,Y)." ~rejects:false;
  shape_case "repeated variable" ~general:"? e(X,X)." "? e(Y,Z)."
    ~rejects:true;
  shape_case "repeated variable twin" ~general:"? e(X,X)." "? e(Y,Y)."
    ~rejects:false;
  (* each atom needs its own target, but targets may be shared *)
  shape_case "one atom without a target" ~general:"? e(X,Y), p(Y)."
    "? e(U,V), p(W), e(V,V)." ~rejects:false;
  shape_case "one atom without a target (rejects)"
    ~general:"? e(X,Y), f(Y,Y)." "? e(U,V), f(U,V)." ~rejects:true

(* Homomorphisms need not be injective: a path of two edges maps onto one
   loop.  A filter that counted atoms would reject this contained pair. *)
let test_prefilter_never_counts () =
  let general = Parser.parse_query "? e(X,Y), e(Y,Z)." in
  let specific = Parser.parse_query "? e(a,a)." in
  check Alcotest.bool "not rejected" false
    (Reference_shape.shape_rejects ~general specific);
  List.iter
    (fun hc ->
      check Alcotest.bool
        ("contained under " ^ Hc.mode_tag hc)
        true
        (Containment.subsumes ~hc ~general specific))
    [ Hc.Structural; Hc.Interned ];
  (* a constant spelled like a frozen variable meets that variable in the
     frozen instance, and the filter must see the same collision *)
  let general =
    Cq.boolean [ Atom.app "e" [ Term.cst "_frz_Y"; Term.var "X" ] ]
  in
  let specific = Parser.parse_query "? e(Y,Z)." in
  check Alcotest.bool "frozen-name collision is contained" true
    (structural_subsumes ~general specific);
  check Alcotest.bool "frozen-name collision is not rejected" false
    (Reference_shape.shape_rejects ~general specific)

(* ----------------------------------------------------------------- *)
(* Rewriting: same UCQs, same completeness, same trip points          *)
(* ----------------------------------------------------------------- *)

(* Rewriting draws on the global fresh-name supply, so the two runs are
   pinned to the same names by resetting it; only then is byte equality
   of the UCQs the right oracle. *)
let reproducible go hc =
  Term.reset_fresh_counter ();
  go hc

let check_rewrite_agrees name (a : Rewrite.result) (b : Rewrite.result) =
  check Alcotest.(list cq) (name ^ ": ucq") a.Rewrite.ucq b.Rewrite.ucq;
  check Alcotest.bool (name ^ ": complete") a.Rewrite.complete b.Rewrite.complete;
  check Alcotest.int (name ^ ": generated") a.Rewrite.generated b.Rewrite.generated;
  check Alcotest.int (name ^ ": kept") a.Rewrite.kept b.Rewrite.kept;
  check
    Alcotest.(option string)
    (name ^ ": tripped")
    (Option.map Budget.resource_name a.Rewrite.tripped)
    (Option.map Budget.resource_name b.Rewrite.tripped)

let test_rewrite_zoo_differential () =
  List.iter
    (fun (e : Zoo.entry) ->
      if Theory.all_single_head e.Zoo.theory then begin
        let go hc =
          Rewrite.rewrite ~hc ~max_disjuncts:60 ~max_steps:400 e.Zoo.theory
            e.Zoo.query
        in
        check_rewrite_agrees e.Zoo.name (reproducible go Hc.Structural)
          (reproducible go Hc.Interned);
        let ka = Rewrite.kappa ~hc:Hc.Structural e.Zoo.theory in
        let kb = Rewrite.kappa ~hc:Hc.Interned e.Zoo.theory in
        check Alcotest.int (e.Zoo.name ^ ": kappa") ka.Rewrite.kappa
          kb.Rewrite.kappa;
        check Alcotest.bool
          (e.Zoo.name ^ ": kappa complete")
          ka.Rewrite.all_complete kb.Rewrite.all_complete
      end)
    Zoo.all

let test_rewrite_random_differential () =
  for seed = 0 to 59 do
    let theory = Gen.random_binary_theory ~rules:4 ~seed () in
    let st = Random.State.make [| seed; 401 |] in
    let query = random_cq st in
    let go hc = Rewrite.rewrite ~hc ~max_disjuncts:30 ~max_steps:150 theory query in
    check_rewrite_agrees
      (Printf.sprintf "seed %d" seed)
      (reproducible go Hc.Structural)
      (reproducible go Hc.Interned)
  done

(* Fuel traps: the interned path must charge the budget exactly where
   the structural path does — a skipped charge would shift the trip
   point and diverge here. *)
let test_rewrite_fuel_trap_differential () =
  let theory = th "e(X,Y) -> e(Y,X). e(X,Y), e(Y,Z) -> e(X,Z)." in
  let query = Parser.parse_query "? e(X,Y)." in
  List.iter
    (fun after ->
      let go hc =
        Rewrite.rewrite
          ~budget:(Budget.with_fuel_trap ~after (Budget.v ()))
          ~hc ~max_disjuncts:40 ~max_steps:200 theory query
      in
      check_rewrite_agrees
        (Printf.sprintf "trap %d" after)
        (reproducible go Hc.Structural)
        (reproducible go Hc.Interned))
    [ 0; 1; 2; 3; 5; 8; 13; 21; 55 ]

let test_rewrite_expired_deadline_differential () =
  (* an already-expired deadline is the one deterministic point of the
     wall-clock resource: both modes must trip it identically *)
  let theory = th "e(X,Y) -> e(Y,X). e(X,Y), e(Y,Z) -> e(X,Z)." in
  let query = Parser.parse_query "? e(X,Y)." in
  let go hc =
    Rewrite.rewrite
      ~budget:(Budget.v ~deadline_s:(-1.0) ())
      ~hc ~max_disjuncts:40 ~max_steps:200 theory query
  in
  check_rewrite_agrees "deadline 0" (reproducible go Hc.Structural)
    (reproducible go Hc.Interned)

(* ----------------------------------------------------------------- *)
(* Ptypes and Converge: the evaluation memo                           *)
(* ----------------------------------------------------------------- *)

let test_ptypes_differential () =
  for seed = 0 to 14 do
    let theory = Gen.random_binary_theory ~rules:3 ~seed () in
    let base = Gen.random_instance ~facts:4 ~seed:(seed + 500) () in
    let r = Chase.run ~max_rounds:2 ~max_elements:24 theory base in
    let inst = r.Chase.instance in
    (match Instance.elements inst with
    | d :: e :: _ ->
        List.iter
          (fun vars ->
            check Alcotest.bool
              (Printf.sprintf "seed %d: ptp_leq vars=%d" seed vars)
              (Ptypes.ptp_leq ~hc:Hc.Structural ~vars inst (Some d) inst
                 (Some e))
              (Ptypes.ptp_leq ~hc:Hc.Interned ~vars inst (Some d) inst (Some e));
            check Alcotest.bool
              (Printf.sprintf "seed %d: equiv vars=%d" seed vars)
              (Ptypes.equiv ~hc:Hc.Structural ~vars inst d e)
              (Ptypes.equiv ~hc:Hc.Interned ~vars inst d e))
          [ 1; 2 ]
    | _ -> ());
    let ca, na = Ptypes.classes ~hc:Hc.Structural ~vars:2 inst in
    let cb, nb = Ptypes.classes ~hc:Hc.Interned ~vars:2 inst in
    check Alcotest.int (Printf.sprintf "seed %d: class count" seed) na nb;
    check
      Alcotest.(array int)
      (Printf.sprintf "seed %d: class assignment" seed)
      ca cb
  done

let test_converge_differential () =
  let inst = Gen.cycle ~len:4 () in
  let coloring = Coloring.natural ~m:2 inst in
  let p = Atom.pred (Atom.app "e" [ Term.var "X"; Term.var "Y" ]) in
  let queries = Converge.default_queries [ p ] in
  check Alcotest.bool "the default family is non-empty" true (queries <> []);
  let go hc = Converge.sequence ~hc ~max_n:3 coloring queries in
  let a = go Hc.Structural in
  let b = go Hc.Interned in
  List.iter2
    (fun (pa : Converge.point) (pb : Converge.point) ->
      check Alcotest.int "n" pa.Converge.n pb.Converge.n;
      check Alcotest.int "quotient size" pa.Converge.quotient_size
        pb.Converge.quotient_size;
      check
        Alcotest.(list (pair cq string))
        (Printf.sprintf "gained at n=%d" pa.Converge.n)
        pa.Converge.gained pb.Converge.gained)
    a.Converge.points b.Converge.points

(* ----------------------------------------------------------------- *)
(* Pipeline and judge: end-to-end differential                        *)
(* ----------------------------------------------------------------- *)

let small_params hc budget =
  {
    Pipeline.default_params with
    Pipeline.chase_depth = 8;
    depth_growth = [ 1 ];
    n_schedule = [ 1; 2; 3 ];
    rewrite_max_disjuncts = 40;
    rewrite_max_steps = 300;
    budget;
    hc;
  }

let pipeline_sig = function
  | Pipeline.Query_entailed d -> Printf.sprintf "certain:%d" d
  | Pipeline.Model (cert, stats) ->
      Printf.sprintf "model:%d:n=%s"
        (Instance.num_elements cert.Certificate.model)
        (match stats.Pipeline.n_used with
        | Some n -> string_of_int n
        | None -> "-")
  | Pipeline.Unknown (why, stats) ->
      Printf.sprintf "unknown:%s:tripped=%s" why
        (match stats.Pipeline.tripped with
        | Some r -> Budget.resource_name r
        | None -> "-")

let judge_sig (v : Judge.verdict) =
  let evidence =
    match v.Judge.evidence with
    | Judge.Certain d -> Printf.sprintf "certain:%d" d
    | Judge.Witness (cert, _) ->
        Printf.sprintf "model:%d"
          (Instance.num_elements cert.Certificate.model)
    | Judge.No_small_model { max_extra; _ } ->
        Printf.sprintf "no_small_model:%d" max_extra
    | Judge.Open why -> "open:" ^ why
  in
  let scope =
    match v.Judge.scope with
    | None -> "none"
    | Some s -> string_of_bool s.Judge.conjecture_applies
  in
  Printf.sprintf "%s|scope=%s|terminating=%b" evidence scope
    v.Judge.chase_terminating

let test_pipeline_zoo_differential () =
  List.iter
    (fun (e : Zoo.entry) ->
      let go hc =
        Pipeline.construct ~params:(small_params hc None) e.Zoo.theory
          (Zoo.database_instance e) e.Zoo.query
      in
      check Alcotest.string e.Zoo.name
        (pipeline_sig (go Hc.Structural))
        (pipeline_sig (go Hc.Interned)))
    Zoo.all

let test_judge_zoo_differential () =
  List.iter
    (fun name ->
      let e = Option.get (Zoo.find name) in
      let d = Zoo.database_instance e in
      let go hc =
        Judge.judge
          ~budget:{ Judge.default_budget with pipeline_params = small_params hc None }
          e.Zoo.theory d e.Zoo.query
      in
      check Alcotest.string name
        (judge_sig (go Hc.Structural))
        (judge_sig (go Hc.Interned)))
    [ "ex1"; "ex7"; "remark3"; "sec55" ]

let test_judge_random_differential () =
  for seed = 0 to 11 do
    let theory = Gen.random_binary_theory ~rules:4 ~seed () in
    let d = Gen.random_instance ~facts:4 ~seed:(seed + 1000) () in
    let st = Random.State.make [| seed; 709 |] in
    let query = Cq.boolean (Cq.body (random_cq st)) in
    let go hc =
      (* a fresh pure-fuel governor per run: fuel trips are
         deterministic, so both modes must stop at the same point *)
      let budget =
        Budget.v ~rounds:60 ~elements:1_500 ~facts:10_000 ~rewrite_steps:400
          ~refine_steps:2_000 ~nodes:400 ()
      in
      Judge.judge
        ~budget:
          { Judge.default_budget with
            pipeline_params = small_params hc (Some budget);
          }
        theory d query
    in
    check Alcotest.string
      (Printf.sprintf "seed %d" seed)
      (judge_sig (go Hc.Structural))
      (judge_sig (go Hc.Interned))
  done

let test_pipeline_fuel_trap_differential () =
  let e = Option.get (Zoo.find "ex1") in
  let d = Zoo.database_instance e in
  List.iter
    (fun after ->
      let go hc =
        Pipeline.construct
          ~params:
            (small_params hc (Some (Budget.with_fuel_trap ~after (Budget.v ()))))
          e.Zoo.theory d e.Zoo.query
      in
      check Alcotest.string
        (Printf.sprintf "trap %d" after)
        (pipeline_sig (go Hc.Structural))
        (pipeline_sig (go Hc.Interned)))
    [ 0; 5; 25; 125; 625 ]

(* ----------------------------------------------------------------- *)
(* Observability reconciliation                                       *)
(* ----------------------------------------------------------------- *)

let hc_counter_names =
  [
    "hc.lookups";
    "hc.hits";
    "hc.resets";
    "containment.index_rejects";
    "containment.searches";
    "hc.eval_memo_lookups";
    "hc.eval_memo_hits";
  ]

let hc_deltas ~before ~after =
  let v s n = Option.value ~default:0 (M.find_int s n) in
  List.map (fun n -> (n, v after n - v before n)) hc_counter_names

(* A mixed workload, deterministic given a reset store: a rewriting
   (containment, which keeps no store) and a ptype partition (the
   evaluation memo). *)
let rewrite_half () =
  let theory = th "e(X,Y) -> e(Y,X). e(X,Y), e(Y,Z) -> e(X,Z)." in
  let query = Parser.parse_query "? e(X,Y)." in
  ignore (Rewrite.rewrite ~hc:Hc.Interned ~max_disjuncts:30 ~max_steps:150 theory query)

let ptypes_half () =
  ignore (Ptypes.classes ~hc:Hc.Interned ~vars:2 (Gen.null_chain ~len:8 ()))

let hc_workload () =
  rewrite_half ();
  ptypes_half ()

let test_counters_reconcile () =
  Hc.reset ();
  let before = M.snapshot () in
  rewrite_half ();
  let mid = M.snapshot () in
  ptypes_half ();
  let after = M.snapshot () in
  let d name = List.assoc name (hc_deltas ~before ~after) in
  let d_rewrite name = List.assoc name (hc_deltas ~before ~after:mid) in
  check Alcotest.bool "containment searches happened" true
    (d_rewrite "containment.searches" > 0);
  check Alcotest.int "the rewriting never touched the store" 0
    (d_rewrite "hc.lookups");
  check Alcotest.bool "store lookups happened" true (d "hc.lookups" > 0);
  List.iter
    (fun (hits, lookups) ->
      check Alcotest.bool (hits ^ " is non-negative") true (d hits >= 0);
      check Alcotest.bool
        (hits ^ " never exceeds " ^ lookups)
        true
        (d hits <= d lookups))
    [
      ("hc.hits", "hc.lookups");
      ("hc.eval_memo_hits", "hc.eval_memo_lookups");
    ];
  (* the nodes gauge is exactly the live store size *)
  let atoms, cqs = Hc.store_size () in
  check Alcotest.int "hc.nodes gauge tracks the store" (atoms + cqs)
    (Option.value ~default:(-1) (M.find_int after "hc.nodes"))

let test_counters_repeatable () =
  let run () =
    Hc.reset ();
    let before = M.snapshot () in
    hc_workload ();
    hc_deltas ~before ~after:(M.snapshot ())
  in
  check
    Alcotest.(list (pair string int))
    "identical workloads move the hc counters identically" (run ()) (run ())

let test_trace_inertness () =
  T.set_sink None;
  let run () =
    Hc.reset ();
    let before = M.snapshot () in
    hc_workload ();
    hc_deltas ~before ~after:(M.snapshot ())
  in
  let off = run () in
  let _collector = T.install_collector () in
  let on = run () in
  T.set_sink None;
  check
    Alcotest.(list (pair string int))
    "tracing on/off leaves the hc counters inert" off on

(* ----------------------------------------------------------------- *)
(* No process-wide containment state                                 *)
(* ----------------------------------------------------------------- *)

(* The zoo theories as κ sees them: raw, and hidden-query plus
   ♠5-normalized as the pipeline hands them over. *)
let kappa_theories () =
  List.concat_map
    (fun (e : Zoo.entry) ->
      let normalized =
        match
          Normalize.spade5 (Normalize.hide_query e.Zoo.theory e.Zoo.query).theory
        with
        | split -> [ (e.Zoo.name ^ "/normalized", split.Normalize.theory) ]
        | exception Normalize.Unsupported _ -> []
      in
      List.filter
        (fun (_, t) -> Theory.all_single_head t)
        ((e.Zoo.name, e.Zoo.theory) :: normalized))
    Zoo.all

let reply t line =
  match Json.parse (Server.handle_line t line) with
  | Ok j -> j
  | Error e -> Alcotest.failf "unparseable reply to %S: %s" line e

let member name j =
  match Json.member name j with
  | Some v -> v
  | None -> Alcotest.failf "reply lacks %S: %s" name (Json.to_string j)

(* κ over the zoo, then a served judge and cert, intern nothing; and a
   session rebuilt after eviction answers byte for byte as before. *)
let test_serve_no_store_no_drift () =
  Hc.reset ();
  List.iter
    (fun (_, theory) ->
      ignore
        (Rewrite.kappa ~hc:Hc.Interned ~max_disjuncts:100 ~max_steps:2_000
           theory))
    (kappa_theories ());
  check
    Alcotest.(pair int int)
    "kappa over the zoo leaves the store empty" (0, 0) (Hc.store_size ());
  let config = { Server.default_config with Server.chase_rounds = 8 } in
  let t = Server.create ~config () in
  let load =
    reply t
      {|{"id":0,"op":"load","session":"s","program":"e(X,Y) -> exists Z. e(Y,Z). e(X,Y), e(Y,Z), e(Z,X) -> u(X,Y). e(a,b)."}|}
  in
  check Alcotest.bool "load ok" true
    (match member "ok" load with Json.B b -> b | _ -> false);
  let lines =
    [ {|{"id":1,"op":"judge","session":"s","query":"? u(X,Y)."}|};
      {|{"id":2,"op":"cert","session":"s","query":"? u(X,Y)."}|} ]
  in
  let first = List.map (Server.handle_line t) lines in
  check
    Alcotest.(pair int int)
    "serve judge and cert leave the store empty" (0, 0) (Hc.store_size ());
  let evicted = reply t {|{"id":3,"op":"evict","session":"s"}|} in
  check Alcotest.bool "eviction reported" true
    (match member "evicted" evicted with Json.B b -> b | _ -> false);
  let second = List.map (Server.handle_line t) lines in
  check
    Alcotest.(list string)
    "byte-identical replies across the eviction" first second

(* ----------------------------------------------------------------- *)
(* The signature index                                              *)
(* ----------------------------------------------------------------- *)

(* Every (general, specific) pair the rewriting loop's two scans meet,
   replayed on plain queries: each raw candidate against the kept set,
   then each kept-set survivor's core against the kept set the other way. *)
let kappa_pairs theory =
  let pairs = ref [] in
  List.iter
    (fun rule ->
      let q0 = minimize (Rule.body_query rule) in
      let kept = ref [ q0 ] and queue = Queue.create () and steps = ref 0 in
      Queue.add q0 queue;
      while (not (Queue.is_empty queue)) && !steps < 300 do
        let cur = Queue.pop queue in
        if List.exists (Cq.equal cur) !kept then
          List.iter
            (fun rule ->
              List.iter
                (fun c ->
                  incr steps;
                  List.iter (fun k -> pairs := (k, c) :: !pairs) !kept;
                  if not
                       (List.exists
                          (fun k -> Containment.subsumes ~general:k c)
                          !kept)
                  then begin
                    let core = minimize c in
                    List.iter (fun k -> pairs := (core, k) :: !pairs) !kept;
                    if Cq.num_vars core <= 16 && List.length !kept < 60 then begin
                      kept :=
                        core
                        :: List.filter
                             (fun k -> not (Containment.subsumes ~general:core k))
                             !kept;
                      Queue.add core queue
                    end
                  end)
                (Bddfc_rewriting.Piece.one_steps rule cur))
            (Theory.rules theory)
      done)
    (Theory.rules theory);
  !pairs

let shape_features a = Array.of_list (List.filter (fun c -> c >= 0) (Array.to_list a))

let signature_case name ~general specific =
  let pg = Containment.prepare ~hc:Hc.Interned general in
  let ps = Containment.prepare ~hc:Hc.Interned specific in
  let needs, _ = Containment.signature pg and _, hosts = Containment.signature ps in
  let shape_rejects =
    not
      (Array.for_all
         (fun c -> Array.mem c (shape_features hosts))
         (shape_features needs))
  in
  (* the signatures describe the queries as prepared *)
  check Alcotest.bool (name ^ ": shape part matches the per-pair scan")
    (Reference_shape.shape_rejects ~general specific)
    shape_rejects;
  let rejects = Containment.rejects ~general:pg ps in
  if rejects then
    check Alcotest.bool (name ^ ": a signature reject is not contained")
      false
      (structural_subsumes ~general specific);
  rejects

let test_index_signatures () =
  let n = ref 0 and rejected = ref 0 in
  let case name (general, specific) =
    incr n;
    if signature_case name ~general specific then incr rejected
  in
  for seed = 0 to 239 do
    let st = Random.State.make [| seed; 101 |] in
    let q1 = random_cq st in
    let q2 = random_cq st in
    List.iter
      (case (Printf.sprintf "seed %d" seed))
      [ (q1, q2); (q2, q1); (q1, q1); (alpha_variant q1, q2) ]
  done;
  List.iter
    (fun (name, theory) -> List.iter (case name) (kappa_pairs theory))
    (kappa_theories ());
  check Alcotest.bool "the zoo and the fuzz pairs exercise the index" true
    (!rejected > 1000 && !rejected < !n);
  let q = Parser.parse_query in
  (* homomorphisms need not be injective: a path maps onto a loop *)
  check Alcotest.bool "path into a loop: kept" false
    (signature_case "path into a loop" ~general:(q "? e(X,Y), e(Y,Z).")
       (q "? e(a,a)."));
  check Alcotest.bool "path into a loop: contained" true
    (Containment.subsumes ~hc:Hc.Interned ~general:(q "? e(X,Y), e(Y,Z).")
       (q "? e(a,a)."));
  check Alcotest.bool "repeated variable against distinct constants" true
    (signature_case "p(X,X) into p(a,b)" ~general:(q "? p(X,X).")
       (q "? p(a,b)."));
  (* a constant spelled like a frozen variable of the specific side, as
     written, meets it; a canonical name like _hc0 is nobody's *)
  let frozen_general v =
    Cq.boolean
      [ Atom.app "e" [ Term.cst (Cq.frozen_name v); Term.var "X" ] ]
  in
  check Alcotest.bool "frozen-name constant: kept" false
    (signature_case "frozen-name constant" ~general:(frozen_general "Y")
       (q "? e(Y,Z)."));
  check Alcotest.bool "frozen-name constant: contained" true
    (Containment.subsumes ~hc:Hc.Interned ~general:(frozen_general "Y")
       (q "? e(Y,Z)."));
  check Alcotest.bool "frozen-name constant of no variable: rejected" true
    (signature_case "frozen-name twin" ~general:(frozen_general "_hc0")
       (q "? e(Y,Z)."));
  check Alcotest.bool "frozen-name twin: not contained" false
    (Containment.subsumes ~hc:Hc.Interned ~general:(frozen_general "_hc0")
       (q "? e(Y,Z)."))

(* Each pair a scan tests is either settled by the index or is exactly
   one search, the verdicts are the structural ones, and the store is
   never touched. *)
let test_index_accounting () =
  Hc.reset ();
  let st = Random.State.make [| 7; 29 |] in
  let qs = List.init 24 (fun _ -> Cq.boolean (Cq.body (random_cq st))) in
  let prepared = List.map (Containment.prepare ~hc:Hc.Interned) qs in
  let count s k = Option.value ~default:0 (M.find_int s k) in
  let s0 = M.snapshot () in
  let scanned = ref 0 in
  for _ = 1 to 2 do
    List.iter
      (fun g ->
        List.iter
          (fun s ->
            incr scanned;
            check Alcotest.bool "prepared verdict is the structural one"
              (structural_subsumes ~general:(Containment.query g)
                 (Containment.query s))
              (Containment.prepared_subsumes ~general:g s))
          prepared)
      prepared
  done;
  let s1 = M.snapshot () in
  let d k = count s1 k - count s0 k in
  check Alcotest.int "index rejects + searches = pairs scanned" !scanned
    (d "containment.index_rejects" + d "containment.searches");
  check Alcotest.bool "the index settled some pairs" true
    (d "containment.index_rejects" > 0);
  check Alcotest.(pair int int) "the store stays empty" (0, 0)
    (Hc.store_size ())

(* Containment compiles no plan: preparing, deciding and minimizing run
   the matcher over int-coded queries, never an [Eval] plan. *)
let with_deltas f =
  let count s k = Option.value ~default:0 (M.find_int s k) in
  let s0 = M.snapshot () in
  let v = f () in
  let s1 = M.snapshot () in
  (v, fun k -> count s1 k - count s0 k)

let test_minimize_no_plan () =
  let q =
    Containment.prepare ~hc:Hc.Interned
      (Parser.parse_query "? e(X,Y), e(X,Z), e(Z,W), e(X,X2), p(X).")
  in
  let m, d = with_deltas (fun () -> Containment.minimize q) in
  check Alcotest.int "atoms kept" 3 (Cq.num_atoms (Containment.query m));
  check Alcotest.int "one search per e atom" 4 (d "containment.searches");
  check Alcotest.int "no plan compiled" 0 (d "eval.plans_compiled")

let test_general_side_no_plan () =
  let general =
    Containment.prepare ~hc:Hc.Interned (Parser.parse_query "? e(X,Y), p(Y).")
  in
  let specifics =
    List.init 12 (fun i ->
        Containment.prepare ~hc:Hc.Interned
          (Parser.parse_query
             (Printf.sprintf "? e(a%d,Y), p(Y), e(Y,Z%d)." i i)))
  in
  let verdicts, d =
    with_deltas (fun () ->
        List.map (fun s -> Containment.prepared_subsumes ~general s) specifics)
  in
  check Alcotest.(list bool) "every specific side is contained"
    (List.map (fun _ -> true) specifics) verdicts;
  check Alcotest.int "one search per pair" 12 (d "containment.searches");
  check Alcotest.int "no plan compiled" 0 (d "eval.plans_compiled")

let test_subsumes_no_plan () =
  let verdict, d =
    with_deltas (fun () ->
        Containment.subsumes ~hc:Hc.Interned
          ~general:(Parser.parse_query "? e(X,Y).")
          (Parser.parse_query "? e(a,b), p(b)."))
  in
  check Alcotest.bool "the specific side is contained" true verdict;
  check Alcotest.int "one search" 1 (d "containment.searches");
  check Alcotest.int "no plan compiled" 0 (d "eval.plans_compiled")

(* ----------------------------------------------------------------- *)

let suite =
  ( "hc",
    [
      tc "interning is idempotent" test_intern_idempotent;
      tc "alpha-equivalent queries share a node" test_alpha_equivalent_same_node;
      tc "distinct ids imply distinct structure" test_distinct_ids_distinct_structure;
      tc "locations never reach the keys" test_locations_never_reach_the_keys;
      tc "atom hashing folds over every argument" test_full_arity_hashing;
      tc "fuzz: containment verdicts agree across modes" test_fuzz_containment;
      tc "fuzz: the matcher agrees with the structural oracle"
        test_fuzz_matcher;
      tc "prefilter: rejections are sound on the fuzz pairs"
        test_prefilter_sound_fuzz;
      tc "prefilter: one crafted case per condition" test_prefilter_crafted;
      tc "prefilter: never counts atoms" test_prefilter_never_counts;
      tc "rewrite: zoo differential" test_rewrite_zoo_differential;
      tc "rewrite: random-theory differential" test_rewrite_random_differential;
      tc "rewrite: fuel-trap points do not diverge" test_rewrite_fuel_trap_differential;
      tc "rewrite: expired deadline trips identically" test_rewrite_expired_deadline_differential;
      tc "ptypes: inclusion and classes agree across modes" test_ptypes_differential;
      tc "converge: gained-query traces agree across modes" test_converge_differential;
      tc "pipeline: zoo differential" test_pipeline_zoo_differential;
      tc "judge: zoo differential" test_judge_zoo_differential;
      tc "judge: random differential under fuel budgets" test_judge_random_differential;
      tc "pipeline: fuel-trap points do not diverge" test_pipeline_fuel_trap_differential;
      tc "obs: hits reconcile with lookups and the store" test_counters_reconcile;
      tc "obs: identical workloads, identical counter deltas" test_counters_repeatable;
      tc "obs: tracing on/off leaves hc counters inert" test_trace_inertness;
      tc "serve: kappa, judge and cert keep no store; eviction no drift"
        test_serve_no_store_no_drift;
      tc "index: signature rejects are sound and match the shape scan"
        test_index_signatures;
      tc "index: rejects plus searches are the pairs scanned"
        test_index_accounting;
      tc "plans: a minimization compiles one prepared core and no plan"
        test_minimize_no_plan;
      tc "plans: a prepared general side compiles no plan over many pairs"
        test_general_side_no_plan;
      tc "plans: a one-shot subsumes compiles no plan" test_subsumes_no_plan;
    ] )
