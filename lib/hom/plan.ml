(* Compiled join plans: each CQ/rule body is compiled once into an
   integer-register program, which its holder runs as often as it likes.

   Compilation numbers the body's variables into registers of an
   [Element.id array] environment (-1 = unbound) and its constants into a
   per-plan name table, so execution never touches an [Smap] or a string:
   a probe is an array walk comparing element ids.  Constant *names* are
   resolved to element ids once per execution (ids are per-instance, so
   they cannot be baked into the plan); an unknown constant resolves to a
   sentinel that gives its atom cardinality 0 and prunes the branch, the
   compiled counterpart of the interpreter's "unknown constant: atom
   cannot match".

   Execution keeps the interpreter's greedy most-constrained-atom-first
   ordering, but scores candidates with the windowed cardinality reads
   of [Instance] (binary searches over per-bucket birth arrays — exact
   under monotone births, an upper bound otherwise; the score is a
   heuristic, so any approximation costs at most probe order, never
   solutions) and probes candidates straight off the index buckets
   through [Instance.iter_with_*_window] — no candidate list is ever
   materialized, and backtracking undoes register writes through a trail.

   Per-execution state (environment, trail, used-atom flags, resolved
   constants) is allocated fresh on every [exec]: witness checks run
   inside the yield callbacks of body joins, so execution must be
   reentrant.  The cost is a handful of small arrays per join, not per
   probe. *)

open Bddfc_logic
open Bddfc_structure

module Obs = Bddfc_obs.Obs

(* Shared with the interpreter (same registry handles, see eval.ml):
   [eval.join_probes] counts candidate facts tried against a partial
   binding; [eval.index_ops] additionally counts index touches —
   materialized candidates for the interpreter, O(1) cardinality reads
   plus probes here — the "probe-equivalent index operations" the bench
   compares. *)
let probes = Obs.Metrics.counter "eval.join_probes"
let index_ops = Obs.Metrics.counter "eval.index_ops"
let m_compiled = Obs.Metrics.counter "eval.plans_compiled"

type slot =
  | S_reg of int (* environment register *)
  | S_cst of int (* index into the plan's constant-name table *)

type catom = { c_pred : Pred.t; c_slots : slot array }

type t = {
  atoms : catom array;
  nvars : int;
  var_names : string array; (* register -> source variable *)
  const_names : string array; (* constant slot -> source constant *)
}

let nvars plan = plan.nvars
let var_name plan r = plan.var_names.(r)

let reg_of_var plan x =
  let n = Array.length plan.var_names in
  let rec go r =
    if r >= n then None
    else if String.equal plan.var_names.(r) x then Some r
    else go (r + 1)
  in
  go 0

(* Compile a body.  Nothing keeps the plan but the caller. *)
let compile atom_list =
  Obs.Metrics.incr m_compiled;
  let var_idx : (string, int) Hashtbl.t = Hashtbl.create 16 in
  let vars = ref [] in
  let nvars = ref 0 in
  let cst_idx : (string, int) Hashtbl.t = Hashtbl.create 8 in
  let csts = ref [] in
  let ncsts = ref 0 in
  let slot_of = function
    | Term.Var x -> (
        match Hashtbl.find_opt var_idx x with
        | Some r -> S_reg r
        | None ->
            let r = !nvars in
            incr nvars;
            Hashtbl.replace var_idx x r;
            vars := x :: !vars;
            S_reg r)
    | Term.Cst c -> (
        match Hashtbl.find_opt cst_idx c with
        | Some k -> S_cst k
        | None ->
            let k = !ncsts in
            incr ncsts;
            Hashtbl.replace cst_idx c k;
            csts := c :: !csts;
            S_cst k)
  in
  let catom a =
    {
      c_pred = Atom.pred a;
      c_slots = Array.of_list (List.map slot_of (Atom.args a));
    }
  in
  (* Numbering happens while building the atoms; bind them first so the
     counters below see their final values (record fields evaluate in
     unspecified order). *)
  let atoms = Array.of_list (List.map catom atom_list) in
  {
    atoms;
    nvars = !nvars;
    var_names = Array.of_list (List.rev !vars);
    const_names = Array.of_list (List.rev !csts);
  }

(* Sentinels: registers use -1 for "unbound"; resolved constants use -2
   for "name not interned in this instance" (distinct from every element
   id and from the unbound marker). *)
let unbound = -1
let no_const = -2

let resolve_consts inst plan =
  Array.map
    (fun name ->
      match Instance.const_opt inst name with
      | Some id -> id
      | None -> no_const)
    plan.const_names

(* Most-constrained-atom scoring for one search node: the cheapest access
   path of every not-yet-used atom, scored by windowed bucket cardinality
   in O(arity).  Returns the winning atom and writes its score, access
   position (-1: the predicate bucket) and element into
   [out = [|score; pos; id|]]. *)
let score_node inst plan const_ids env used ~wsince ~wupto out =
  let natoms = Array.length plan.atoms in
  let best = ref (-1) in
  out.(0) <- max_int;
  out.(1) <- -1;
  out.(2) <- no_const;
  for i = 0 to natoms - 1 do
    if not used.(i) then begin
      let ca = plan.atoms.(i) in
      let since = wsince.(i) and upto = wupto.(i) in
      let score = ref max_int and pos = ref (-1) and id = ref no_const in
      let slots = ca.c_slots in
      for j = 0 to Array.length slots - 1 do
        let v =
          match slots.(j) with S_reg r -> env.(r) | S_cst k -> const_ids.(k)
        in
        if v = no_const then begin
          (* unknown constant: the atom can never match *)
          score := 0;
          pos := j;
          id := v
        end
        else if v <> unbound then begin
          Obs.Metrics.incr index_ops;
          let c =
            Instance.card_with_arg_window inst ca.c_pred j v ~since ~upto
          in
          if c < !score then begin
            score := c;
            pos := j;
            id := v
          end
        end
      done;
      if !score = max_int then begin
        Obs.Metrics.incr index_ops;
        score := Instance.card_with_pred_window inst ca.c_pred ~since ~upto;
        pos := -1
      end;
      if !score < out.(0) then begin
        best := i;
        out.(0) <- !score;
        out.(1) <- !pos;
        out.(2) <- !id
      end
    end
  done;
  !best

(* Seeding the register environment before a walk: from a named binding
   (variables outside the plan are ignored), or from another plan's
   registers through a precomputed (destination, source) list — the
   chase's witness check, which never touches a variable name. *)
let seed_of_init plan init env =
  Smap.iter
    (fun x id ->
      match reg_of_var plan x with Some r -> env.(r) <- id | None -> ())
    init

let seed_of_fill fill src env =
  Array.iter (fun (dst, s) -> env.(dst) <- src.(s)) fill

let exec_windowed_gen ~seed ~wsince ~wupto inst plan yield =
  let natoms = Array.length plan.atoms in
  let const_ids = resolve_consts inst plan in
  let env = Array.make (max plan.nvars 1) unbound in
  let used = Array.make (max natoms 1) false in
  let trail = Array.make (max plan.nvars 1) 0 in
  let trail_top = ref 0 in
  seed env;
  let undo mark =
    while !trail_top > mark do
      decr trail_top;
      env.(trail.(!trail_top)) <- unbound
    done
  in
  (* Match [f] against the atom's slots, binding free registers through
     the trail.  On success the bindings stay (true); on clash everything
     written since [mark] is undone (false). *)
  let probe_ok slots f mark =
    let args = Fact.args f in
    let arity = Array.length args in
    let ok = ref true and i = ref 0 in
    while !ok && !i < arity do
      let v = args.(!i) in
      (match slots.(!i) with
      | S_cst k -> if const_ids.(k) <> v then ok := false
      | S_reg r ->
          let cur = env.(r) in
          if cur = unbound then begin
            env.(r) <- v;
            trail.(!trail_top) <- r;
            incr trail_top
          end
          else if cur <> v then ok := false);
      incr i
    done;
    if not !ok then undo mark;
    !ok
  in
  let out = Array.make 3 0 in
  let rec go ndone =
    if ndone = natoms then yield env
    else begin
      (* Most-constrained atom first: the cheapest access path of each
         remaining atom, scored by bucket cardinality in O(arity). *)
      let i = score_node inst plan const_ids env used ~wsince ~wupto out in
      if out.(0) = 0 then () (* some atom cannot match at all: prune *)
      else begin
        let best_pos = out.(1) and best_id = out.(2) in
        let ca = plan.atoms.(i) in
        used.(i) <- true;
        let since = wsince.(i) in
        let upto = if wupto.(i) = max_int then None else Some wupto.(i) in
        let mark = !trail_top in
        let probe f =
          Obs.Metrics.incr probes;
          Obs.Metrics.incr index_ops;
          if probe_ok ca.c_slots f mark then begin
            go (ndone + 1);
            undo mark
          end
        in
        (if best_pos >= 0 then
           Instance.iter_with_arg_window ~since ?upto inst ca.c_pred best_pos
             best_id probe
         else Instance.iter_with_pred_window ~since ?upto inst ca.c_pred probe);
        used.(i) <- false
      end
    end
  in
  go 0

let exec_windowed ?(init = Smap.empty) ~wsince ~wupto inst plan yield =
  exec_windowed_gen ~seed:(seed_of_init plan init) ~wsince ~wupto inst plan
    yield

let exec_filled ~fill ~src ~wsince ~wupto inst plan yield =
  exec_windowed_gen ~seed:(seed_of_fill fill src) ~wsince ~wupto inst plan
    yield

let exec ?init ?upto inst plan yield =
  let n = Array.length plan.atoms in
  let u = match upto with None -> max_int | Some u -> u in
  exec_windowed ?init ~wsince:(Array.make (max n 1) 0)
    ~wupto:(Array.make (max n 1) u) inst plan yield
