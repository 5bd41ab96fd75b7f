(* Conjunctive-query evaluation over instances: a backtracking join with a
   greedy most-constrained-atom-first ordering, using the instance's
   (predicate, position, element) index.

   Two engines produce the same solution sets:

     - [Compiled] (default): per-body query plans from [Plan] — integer
       registers instead of [Smap] bindings, O(1) cardinality scoring,
       allocation-free probes off the index buckets.  A {!prepared} body
       holds its plan; the atom-list entry points prepare the body for
       the one call and run the prepared path.
     - [Interp]: the original interpreter, kept verbatim as a
       differential oracle (test/test_differential.ml holds the two to
       solution-set equality over the zoo and fuzzed workloads).

   Every atom of a join carries a *birth window* [since, upto): only facts
   whose birth round lies in the window can match it.  The plain entry
   points use the full window (or a shared [?upto] bound, which evaluates
   against the committed prefix of a chase round without copying the
   instance), and [iter_solutions_delta] implements the semi-naive
   decomposition: a binding is enumerated iff at least one atom matches a
   fact from the delta [since, upto), and each such binding is enumerated
   exactly once (the first delta atom is pinned to the delta, earlier
   atoms to the pre-delta prefix, later atoms to the whole window). *)

open Bddfc_logic
open Bddfc_structure

type binding = Element.id Smap.t

type engine =
  | Compiled
  | Interp

let engine_tag = function Compiled -> "compiled" | Interp -> "interp"

exception Found

(* Join-probe instrumentation: one probe = one candidate fact tried
   against a partial binding, under either engine.  The counters live in
   the process-wide metrics registry ([eval.join_probes], and
   [eval.index_ops] for probe-equivalent index touches — materialized
   candidates here, cardinality reads plus probes in [Plan]); the legacy
   entry points below delegate to the registry handles, keeping the
   counters global and monotonically increasing between resets. *)
module Obs = Bddfc_obs.Obs

let probes = Obs.Metrics.counter "eval.join_probes"
let index_ops = Obs.Metrics.counter "eval.index_ops"
let reset_probes () = Obs.Metrics.reset_counter probes
let probe_count () = Obs.Metrics.value probes

type window = { w_since : int; w_upto : int option }

let full_window = { w_since = 0; w_upto = None }

(* ---------------------------------------------------------------- *)
(* The interpreted engine (differential oracle)                     *)
(* ---------------------------------------------------------------- *)

(* Resolve an atom's arguments under a binding: [Ok ids] when fully ground,
   otherwise the list of (position, resolution) pairs. *)
type slot =
  | Bound of Element.id
  | Free of string

let resolve_args inst binding atom =
  let resolve = function
    | Term.Cst c -> (
        match Instance.const_opt inst c with
        | Some id -> Some (Bound id)
        | None -> None (* unknown constant: atom cannot match *))
    | Term.Var x -> (
        match Smap.find_opt x binding with
        | Some id -> Some (Bound id)
        | None -> Some (Free x))
  in
  let rec go acc = function
    | [] -> Some (List.rev acc)
    | t :: rest -> (
        match resolve t with
        | None -> None
        | Some s -> go (s :: acc) rest)
  in
  go [] (Atom.args atom)

(* Candidate facts for an atom under a binding, using the cheapest index,
   restricted to the atom's birth window. *)
let candidates inst binding (atom, w) =
  match resolve_args inst binding atom with
  | None -> []
  | Some slots ->
      let p = Atom.pred atom in
      let best = ref None in
      List.iteri
        (fun pos slot ->
          match slot with
          | Bound id ->
              let l =
                Instance.facts_with_arg_window ~since:w.w_since ?upto:w.w_upto
                  inst p pos id
              in
              let n = List.length l in
              Obs.Metrics.add index_ops n;
              (match !best with
              | Some (m, _) when m <= n -> ()
              | _ -> best := Some (n, l))
          | Free _ -> ())
        slots;
      let pool =
        match !best with
        | Some (_, l) -> l
        | None ->
            let l =
              Instance.facts_with_pred_window ~since:w.w_since ?upto:w.w_upto
                inst p
            in
            Obs.Metrics.add index_ops (List.length l);
            l
      in
      pool

(* Extend [binding] by matching [atom] against fact [f]; None on clash. *)
let extend inst binding atom f =
  let rec go b ts ids =
    match (ts, ids) with
    | [], [] -> Some b
    | t :: tr, id :: ir -> (
        match t with
        | Term.Cst c -> (
            match Instance.const_opt inst c with
            | Some cid when cid = id -> go b tr ir
            | _ -> None)
        | Term.Var x -> (
            match Smap.find_opt x b with
            | Some bound -> if bound = id then go b tr ir else None
            | None -> go (Smap.add x id b) tr ir))
    | _ -> None
  in
  go binding (Atom.args atom) (Array.to_list (Fact.args f))

(* The core interpreted join over windowed atoms.  Each remaining atom's
   candidate list is materialized once per node — the list that scores an
   atom is the list the winner iterates (the historical [branching]
   helper recomputed it). *)
let iter_solutions_windowed ?(init = Smap.empty) inst watoms yield =
  let rec go binding remaining =
    match remaining with
    | [] -> yield binding
    | _ ->
        (* most-constrained atom first *)
        let scored =
          List.map
            (fun wa ->
              let l = candidates inst binding wa in
              (List.length l, l, wa))
            remaining
        in
        let best_n, best_l, best =
          match scored with
          | first :: rest ->
              List.fold_left
                (fun ((bn, _, _) as acc) ((n, _, _) as cand) ->
                  if n < bn then cand else acc)
                first rest
          | [] -> assert false
        in
        if best_n = 0 then ()
        else begin
          let rest = List.filter (fun wa -> wa != best) remaining in
          List.iter
            (fun f ->
              Obs.Metrics.incr probes;
              match extend inst binding (fst best) f with
              | Some b -> go b rest
              | None -> ())
            best_l
        end
  in
  go init watoms

(* The semi-naive passes of the interpreter, as in [compiled_delta]
   below: pass k pins atom k to the delta, atoms before k to the
   pre-delta prefix and atoms after k to the full window, so a binding
   is produced only by the pass of its first delta atom.  With
   [since <= 0] it is the one pass over the full window. *)
let interp_delta ?init ~since ?upto inst atoms yield =
  if since <= 0 then
    let w = { full_window with w_upto = upto } in
    iter_solutions_windowed ?init inst (List.map (fun a -> (a, w)) atoms) yield
  else begin
    let delta = { w_since = since; w_upto = upto } in
    let old = { w_since = 0; w_upto = Some since } in
    let all = { w_since = 0; w_upto = upto } in
    List.iteri
      (fun k _ ->
        let watoms =
          List.mapi
            (fun i a ->
              if i = k then (a, delta)
              else if i < k then (a, old)
              else (a, all))
            atoms
        in
        iter_solutions_windowed ?init inst watoms yield)
      atoms
  end

(* ---------------------------------------------------------------- *)
(* The compiled engine                                              *)
(* ---------------------------------------------------------------- *)

(* Convert a solved register environment back to a named binding.  Only
   yields allocate (solutions are vastly outnumbered by probes); the
   init binding is the base so variables outside the body — allowed in
   [?init] — survive into the solution. *)
let binding_of_env plan init env =
  let b = ref init in
  for r = 0 to Plan.nvars plan - 1 do
    if env.(r) >= 0 then b := Smap.add (Plan.var_name plan r) env.(r) !b
  done;
  !b

(* The semi-naive passes of a compiled body, yielding the live register
   environment: pass k pins atom k to the delta [since, u), atoms before
   k to the pre-delta prefix [0, since), atoms after k to [0, u). *)
let compiled_delta ?init ~since ?upto inst plan n yield =
  let u = match upto with None -> max_int | Some u -> u in
  let wsince = Array.make (max n 1) 0 in
  let wupto = Array.make (max n 1) u in
  for k = 0 to n - 1 do
    for i = 0 to n - 1 do
      if i = k then begin
        wsince.(i) <- since;
        wupto.(i) <- u
      end
      else if i < k then begin
        wsince.(i) <- 0;
        wupto.(i) <- since
      end
      else begin
        wsince.(i) <- 0;
        wupto.(i) <- u
      end
    done;
    Plan.exec_windowed ?init ~wsince ~wupto inst plan yield
  done

(* ---------------------------------------------------------------- *)
(* Prepared bodies                                                  *)
(* ---------------------------------------------------------------- *)

(* A body compiled once, for a holder that runs it many times: a chase
   run per rule, a containment test's general side, a model check per
   rule.  The plan lives as long as the holder keeps the value. *)
type prepared = { p_atoms : Atom.t list; p_natoms : int; p_plan : Plan.t }

let prepare atoms =
  {
    p_atoms = atoms;
    p_natoms = List.length atoms;
    p_plan = Plan.compile atoms;
  }

let plan p = p.p_plan
let binding_of_prepared p env = binding_of_env p.p_plan Smap.empty env

let satisfiable_filled ~fill ~src ~wsince ~wupto inst p =
  let result = ref false in
  (try
     Plan.exec_filled ~fill ~src ~wsince ~wupto inst p.p_plan (fun _ ->
         result := true;
         raise Found)
   with Found -> ());
  !result

(* The solutions of a prepared body as register environments (the
   plan's numbering): exactly the bindings that match at least one fact
   born in [since, upto), each once (every binding when [since <= 0]).
   The interpreter's named bindings are translated register by
   register, so both engines yield the same set of environments. *)
let iter_env ?(engine = Compiled) ?init ?(since = 0) ?upto inst p yield =
  match engine with
  | Compiled ->
      if since <= 0 then Plan.exec ?init ?upto inst p.p_plan yield
      else compiled_delta ?init ~since ?upto inst p.p_plan p.p_natoms yield
  | Interp ->
      let plan = p.p_plan in
      let n = Plan.nvars plan in
      let env = Array.make (max n 1) (-1) in
      interp_delta ?init ~since ?upto inst p.p_atoms (fun b ->
          for r = 0 to n - 1 do
            env.(r) <- Smap.find (Plan.var_name plan r) b
          done;
          yield env)

let first_env ?engine ?init ?upto inst p =
  let result = ref None in
  (try
     iter_env ?engine ?init ?upto inst p (fun env ->
         result := Some (Array.copy env);
         raise Found)
   with Found -> ());
  !result

(* ---------------------------------------------------------------- *)
(* Atom-list entry points: prepare, then the prepared path          *)
(* ---------------------------------------------------------------- *)

let iter_solutions_delta ?(init = Smap.empty) ~since ?upto ?engine inst atoms
    yield =
  let p = prepare atoms in
  iter_env ?engine ~init ~since ?upto inst p (fun env ->
      yield (binding_of_env p.p_plan init env))

let iter_solutions ?init ?upto ?engine inst atoms yield =
  iter_solutions_delta ?init ~since:0 ?upto ?engine inst atoms yield

let first_solution ?(init = Smap.empty) ?upto ?engine inst atoms =
  let p = prepare atoms in
  Option.map (binding_of_env p.p_plan init)
    (first_env ?engine ~init ?upto inst p)

let satisfiable ?init ?upto ?engine inst atoms =
  first_env ?engine ?init ?upto inst (prepare atoms) <> None

let holds ?init ?upto ?engine inst (q : Cq.t) =
  satisfiable ?init ?upto ?engine inst (Cq.body q)

(* All answers to a query: distinct tuples of answer-variable images. *)
let answers ?engine inst (q : Cq.t) =
  let seen = Hashtbl.create 64 in
  let out = ref [] in
  iter_solutions ?engine inst (Cq.body q) (fun b ->
      let tuple =
        List.map
          (fun x ->
            match Smap.find_opt x b with
            | Some id -> id
            | None -> invalid_arg "Eval.answers: unbound answer variable")
          (Cq.answer q)
      in
      if not (Hashtbl.mem seen tuple) then begin
        Hashtbl.replace seen tuple ();
        out := tuple :: !out
      end);
  List.rev !out

(* Does the query hold with the distinguished free variable [y] bound to
   element [e]?  (The paper's C |= Psi(x, e).) *)
let holds_at ?engine inst (q : Cq.t) y e =
  satisfiable ~init:(Smap.singleton y e) ?engine inst (Cq.body q)
