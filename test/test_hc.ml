(* Containment under adversarial test: the differential fuzzing
   battery.  The suite keeps the name of the hash-consed store it once
   tested; the store is gone, and containment has one path, the
   int-coded matcher of [Containment].

   Oracle: every verdict and every minimization is held to an
   independent decision, reference_containment.ml, which freezes the
   specific side into an [Instance] and evaluates the general side over
   it; the rewriting loop is held to reference_rewrite.ml, whose every
   containment test is that oracle.  Inputs: seeded random queries and
   their α-variants, queries built to reach the matcher, the zoo, seeded
   random theories, and every deterministic fuel-trap point.

   Signatures: a signature reject is a proof of non-containment, the
   shape features match a per-pair scan, and every pair a scan tests is
   an index reject or a search.  Observability: identical workloads
   move the containment counters identically, with tracing on or off;
   containment compiles no [Eval] plan; and a serve session rebuilt
   after eviction answers byte for byte as before. *)

open Bddfc_budget
open Bddfc_logic
open Bddfc_structure
open Bddfc_hom
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
(* Containment: the fuzzing battery proper                            *)
(* ----------------------------------------------------------------- *)

(* The seeded random queries of the other batteries, and their
   α-variants: containment and minimization verdicts agree with the
   structural oracle, whichever variable names a query carries. *)
let test_fuzz_containment () =
  for seed = 0 to 239 do
    let st = Random.State.make [| seed; 101 |] in
    let q1 = random_cq st in
    let q2 = random_cq st in
    let a1 = alpha_variant q1 in
    let name = Printf.sprintf "random seed %d" seed in
    List.iter
      (fun (general, specific) ->
        check Alcotest.bool
          (name ^ ": the matcher agrees with the oracle")
          (Reference_containment.subsumes ~general specific)
          (Containment.subsumes ~general specific))
      [ (q1, q2); (q2, q1); (q1, q1); (a1, q2); (q2, a1); (a1, q1) ];
    List.iter
      (fun q ->
        check cq (name ^ ": minimize agrees with the oracle")
          (Reference_rewrite.minimize q) (minimize q))
      [ q1; a1 ]
  done

(* The matcher against the structural oracle, over queries built to
   reach it: few variables, so that variables repeat within and across
   atoms; duplicated atoms; constants on one side only, or on both; and
   answer arities 0 to 3, an answer variable repeating when the query
   has fewer variables.  Each pair also meets its conjunction, which
   the first query always maps into and which maps back only
   sometimes.  The search count shows that these pairs reach the
   matcher, not only the signatures. *)
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
        let oracle = Reference_containment.subsumes ~general specific in
        if oracle then incr contained;
        let s0 = searches () in
        check Alcotest.bool
          (Printf.sprintf "seed %d: the matcher agrees with the oracle" seed)
          oracle
          (Containment.prepared_subsumes
             ~general:(Containment.prepare general)
             (Containment.prepare specific));
        searched := !searched + searches () - s0)
      [ (g, s); (s, g); (g, g); (g, both); (both, g) ];
    List.iter
      (fun q ->
        check cq
          (Printf.sprintf "seed %d: minimize agrees with the oracle" seed)
          (Reference_rewrite.minimize q)
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
            (Reference_containment.subsumes ~general specific)
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
      (Reference_containment.subsumes ~general specific)

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
  check Alcotest.bool "contained" true (Containment.subsumes ~general specific);
  check Alcotest.bool "the oracle agrees" true
    (Reference_containment.subsumes ~general specific);
  (* a constant spelled like a frozen variable meets that variable in the
     frozen instance, and the filter must see the same collision *)
  let general =
    Cq.boolean [ Atom.app "e" [ Term.cst "_frz_Y"; Term.var "X" ] ]
  in
  let specific = Parser.parse_query "? e(Y,Z)." in
  check Alcotest.bool "frozen-name collision is contained" true
    (Reference_containment.subsumes ~general specific);
  check Alcotest.bool "frozen-name collision is not rejected" false
    (Reference_shape.shape_rejects ~general specific)

(* ----------------------------------------------------------------- *)
(* Rewriting: same UCQs, same completeness, same trip points          *)
(* ----------------------------------------------------------------- *)

(* The library loop against the reference loop, whose every containment
   test is the structural oracle.  Both draw on the global fresh-name
   supply, so each run is pinned to the same names by resetting it; only
   then is byte equality of the UCQs the right oracle.  The rewrite
   suite compares the two loops on rule bodies, on its own random seeds
   and on one theory's fuel traps; the inputs here are the zoo queries
   at the default width cap, other random theories and queries, and the
   zoo under fuel traps and an expired deadline. *)
let reproducible go =
  Term.reset_fresh_counter ();
  go ()

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

(* [rewrite ~max_disjuncts ~max_steps theory query] by the reference
   loop and by the library, each pinned and each under a fresh budget
   from [make_budget]. *)
let rewrite_agrees name ?make_budget ~max_disjuncts ~max_steps theory query =
  let budget () = Option.map (fun make -> make ()) make_budget in
  check_rewrite_agrees name
    (reproducible (fun () ->
         Reference_rewrite.rewrite ?budget:(budget ()) ~max_disjuncts
           ~max_steps theory query))
    (reproducible (fun () ->
         Rewrite.rewrite ?budget:(budget ()) ~max_disjuncts ~max_steps
           theory query))

let test_rewrite_zoo_differential () =
  List.iter
    (fun (e : Zoo.entry) ->
      if Theory.all_single_head e.Zoo.theory then begin
        rewrite_agrees e.Zoo.name ~max_disjuncts:60 ~max_steps:400
          e.Zoo.theory e.Zoo.query;
        let ka = reproducible (fun () -> Reference_rewrite.kappa e.Zoo.theory) in
        let kb = reproducible (fun () -> Rewrite.kappa e.Zoo.theory) in
        check Alcotest.int (e.Zoo.name ^ ": kappa") ka.Rewrite.kappa
          kb.Rewrite.kappa;
        check Alcotest.bool
          (e.Zoo.name ^ ": kappa complete")
          ka.Rewrite.all_complete kb.Rewrite.all_complete
      end)
    Zoo.all

let test_rewrite_random_differential () =
  for seed = 60 to 119 do
    let theory = Gen.random_binary_theory ~rules:3 ~seed () in
    let st = Random.State.make [| seed; 409 |] in
    let query = random_cq st in
    rewrite_agrees
      (Printf.sprintf "seed %d" seed)
      ~max_disjuncts:30 ~max_steps:150 theory query
  done

(* The single-head zoo entries and their queries. *)
let zoo_queries () =
  List.filter_map
    (fun (e : Zoo.entry) ->
      if Theory.all_single_head e.Zoo.theory then
        Some (e.Zoo.name, e.Zoo.theory, e.Zoo.query)
      else None)
    Zoo.all

(* Fuel traps: the library loop must charge the budget exactly where the
   reference loop does — a skipped charge would shift the trip point
   and diverge here. *)
let test_rewrite_fuel_trap_differential () =
  List.iter
    (fun (name, theory, query) ->
      List.iter
        (fun after ->
          rewrite_agrees
            (Printf.sprintf "%s trap %d" name after)
            ~make_budget:(fun () -> Budget.with_fuel_trap ~after (Budget.v ()))
            ~max_disjuncts:40 ~max_steps:200 theory query)
        [ 0; 1; 4; 9; 33; 144 ])
    (zoo_queries ())

let test_rewrite_expired_deadline_differential () =
  (* an already-expired deadline is the one deterministic point of the
     wall-clock resource: both loops must trip it identically *)
  List.iter
    (fun (name, theory, query) ->
      rewrite_agrees (name ^ " deadline 0")
        ~make_budget:(fun () -> Budget.v ~deadline_s:(-1.0) ())
        ~max_disjuncts:40 ~max_steps:200 theory query)
    (zoo_queries ())

(* ----------------------------------------------------------------- *)
(* Observability                                                      *)
(* ----------------------------------------------------------------- *)

let counter_names = [ "containment.index_rejects"; "containment.searches" ]

(* The containment counters a deterministic rewriting moves. *)
let rewrite_deltas () =
  let v s n = Option.value ~default:0 (M.find_int s n) in
  let before = M.snapshot () in
  ignore
    (Rewrite.rewrite ~max_disjuncts:30 ~max_steps:150
       (th "e(X,Y) -> e(Y,X). e(X,Y), e(Y,Z) -> e(X,Z).")
       (Parser.parse_query "? e(X,Y)."));
  let after = M.snapshot () in
  List.map (fun n -> (n, v after n - v before n)) counter_names

let test_counters_repeatable () =
  let first = rewrite_deltas () in
  check Alcotest.bool "containment searches happened" true
    (List.assoc "containment.searches" first > 0);
  check
    Alcotest.(list (pair string int))
    "identical workloads move the containment counters identically" first
    (rewrite_deltas ())

let test_trace_inertness () =
  T.set_sink None;
  let off = rewrite_deltas () in
  let _collector = T.install_collector () in
  let on = rewrite_deltas () in
  T.set_sink None;
  check
    Alcotest.(list (pair string int))
    "tracing on/off leaves the containment counters inert" off on

(* ----------------------------------------------------------------- *)
(* Serve: no drift across an eviction                                 *)
(* ----------------------------------------------------------------- *)

let reply t line =
  match Json.parse (Server.handle_line t line) with
  | Ok j -> j
  | Error e -> Alcotest.failf "unparseable reply to %S: %s" line e

let member name j =
  match Json.member name j with
  | Some v -> v
  | None -> Alcotest.failf "reply lacks %S: %s" name (Json.to_string j)

(* A session rebuilt after eviction answers a judge and a cert byte for
   byte as before. *)
let test_serve_eviction_no_drift () =
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

(* Every candidate the rewriting of [theory]'s rule bodies generates,
   raw, in the order the reference loop draws them; caps default to the
   pipeline's.  [zoo_candidates] holds those of every [kappa_theories]
   entry. *)
let rewriting_candidates
    ?(max_disjuncts = Pipeline.default_params.Pipeline.rewrite_max_disjuncts)
    ?(max_steps = Pipeline.default_params.Pipeline.rewrite_max_steps) theory =
  let drawn = ref [] in
  let one_steps rule q =
    let steps = Bddfc_rewriting.Piece.one_steps rule q in
    drawn := List.rev_append steps !drawn;
    steps
  in
  List.iter
    (fun rule ->
      ignore
        (reproducible (fun () ->
             Reference_rewrite.rewrite ~one_steps ~max_disjuncts ~max_steps
               theory (Rule.body_query rule))))
    (Theory.rules theory);
  List.rev !drawn

let zoo_candidates =
  lazy
    (List.concat_map
       (fun (_, theory) -> rewriting_candidates theory)
       (kappa_theories ()))

let shape_features a = Array.of_list (List.filter (fun c -> c >= 0) (Array.to_list a))

let signature_case name ~general specific =
  let pg = Containment.prepare general in
  let ps = Containment.prepare specific in
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
      (Reference_containment.subsumes ~general specific);
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
    (Containment.subsumes ~general:(q "? e(X,Y), e(Y,Z).")
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
    (Containment.subsumes ~general:(frozen_general "Y")
       (q "? e(Y,Z)."));
  check Alcotest.bool "frozen-name constant of no variable: rejected" true
    (signature_case "frozen-name twin" ~general:(frozen_general "_hc0")
       (q "? e(Y,Z)."));
  check Alcotest.bool "frozen-name twin: not contained" false
    (Containment.subsumes ~general:(frozen_general "_hc0")
       (q "? e(Y,Z)."))

(* The library's host arrays are the first-written ones
   (Reference_containment.hosts), element for element: over the fuzz
   batteries' queries, every zoo rewriting candidate and its core, and
   constants spelled like frozen variables.  A host that moved would
   move [containment.index_rejects] without any verdict changing. *)
let test_hosts_reference () =
  let checked = ref 0 in
  let same name q =
    incr checked;
    check
      Alcotest.(array int)
      (name ^ ": hosts equal the reference")
      (Reference_containment.hosts q)
      (snd (Containment.signature (Containment.prepare q)))
  in
  for seed = 0 to 239 do
    let st = Random.State.make [| seed; 101 |] in
    let q1 = random_cq st in
    let q2 = random_cq st in
    List.iter (same (Printf.sprintf "random seed %d" seed))
      [ q1; q2; alpha_variant q1 ]
  done;
  for seed = 0 to 599 do
    let st = Random.State.make [| seed; 331 |] in
    let arity = seed mod 4 in
    let g = matcher_cq st ~consts:(seed mod 3 <> 1) ~arity in
    let s = matcher_cq st ~consts:(seed mod 3 <> 2) ~arity in
    let both = Cq.make ~answer:(Cq.answer g) (Cq.body g @ Cq.body s) in
    List.iter (same (Printf.sprintf "matcher seed %d" seed)) [ g; s; both ]
  done;
  List.iteri
    (fun i c ->
      let name = Printf.sprintf "zoo candidate %d" i in
      same name c;
      same (name ^ " core") (minimize c))
    (Lazy.force zoo_candidates);
  (* a constant spelled like a frozen variable is that variable's term;
     one spelled like a frozen non-variable is a constant of its own *)
  let x = Term.var "X" and y = Term.var "Y" and frz v = Term.cst (Cq.frozen_name v) in
  List.iter
    (fun body -> same "frozen spelling" (Cq.boolean body))
    [ [ Atom.app "e" [ x; frz "X" ]; Atom.app "e" [ frz "X"; y ];
        Atom.app "t" [ y; y; frz "Y" ] ];
      [ Atom.app "e" [ x; frz "Z" ]; Atom.app "e" [ frz "Z"; frz "Z" ];
        Atom.app "p" [ frz "" ] ];
      [ Atom.app "t" [ x; y; x ]; Atom.app "t" [ frz "X"; frz "Y"; frz "X" ];
        Atom.app "e" [ Term.cst "a"; frz "Y" ] ] ];
  check Alcotest.bool "queries checked" true (!checked > 3000)

(* Each pair a scan tests is either settled by the index or is exactly
   one search, and the verdicts are the oracle's. *)
let test_index_accounting () =
  let st = Random.State.make [| 7; 29 |] in
  let qs = List.init 24 (fun _ -> Cq.boolean (Cq.body (random_cq st))) in
  let prepared = List.map (Containment.prepare) qs in
  let count s k = Option.value ~default:0 (M.find_int s k) in
  let s0 = M.snapshot () in
  let scanned = ref 0 in
  for _ = 1 to 2 do
    List.iter
      (fun g ->
        List.iter
          (fun s ->
            incr scanned;
            check Alcotest.bool "prepared verdict is the oracle's"
              (Reference_containment.subsumes ~general:(Containment.query g)
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
    (d "containment.index_rejects" > 0)

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
    Containment.prepare
      (Parser.parse_query "? e(X,Y), e(X,Z), e(Z,W), e(X,X2), p(X).")
  in
  let m, d = with_deltas (fun () -> Containment.minimize q) in
  check Alcotest.int "atoms kept" 3 (Cq.num_atoms (Containment.query m));
  check Alcotest.int "one search per e atom" 4 (d "containment.searches");
  check Alcotest.int "no plan compiled" 0 (d "eval.plans_compiled")

let test_general_side_no_plan () =
  let general =
    Containment.prepare (Parser.parse_query "? e(X,Y), p(Y).")
  in
  let specifics =
    List.init 12 (fun i ->
        Containment.prepare
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
        Containment.subsumes
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
      tc "fuzz: containment verdicts agree across alpha-variants"
        test_fuzz_containment;
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
      tc "obs: identical workloads, identical counter deltas" test_counters_repeatable;
      tc "obs: tracing on/off leaves hc counters inert" test_trace_inertness;
      tc "serve: eviction leaves no drift" test_serve_eviction_no_drift;
      tc "index: signature rejects are sound and match the shape scan"
        test_index_signatures;
      tc "index: rejects plus searches are the pairs scanned"
        test_index_accounting;
      tc "index: hosts equal the first-written reference"
        test_hosts_reference;
      tc "plans: a minimization compiles one prepared core and no plan"
        test_minimize_no_plan;
      tc "plans: a prepared general side compiles no plan over many pairs"
        test_general_side_no_plan;
      tc "plans: a one-shot subsumes compiles no plan" test_subsumes_no_plan;
    ] )
