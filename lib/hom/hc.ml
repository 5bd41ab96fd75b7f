(* Hash-consed canonical-query store plus an evaluation compute cache:
   the BDD-package unique-table/compute-cache pattern transplanted to
   conjunctive queries.

   Interning is two-level, like a BDD node store: atoms first (loc
   stripped, full-arity hash — Hashtbl.hash would fold the Loc.t that
   Atom.equal ignores, violating the Hashtbl contract and silently
   duplicating ids), then CQs as (answer, atom-id list) keys over
   α-canonicalized bodies.  Structural equality of canonical forms is id
   equality from then on.

   Coherence: every cached verdict is computed *on the canonical
   representative*, and the cached judgement (satisfiability of a query
   over a version-stamped instance) is invariant under α-renaming of the
   query.  So a hit for an α-variant returns exactly what recomputation
   would.

   The store is global and unsynchronized, the only process-wide table
   in this library: the program runs on one domain. *)

open Bddfc_logic
open Bddfc_structure
module Obs = Bddfc_obs.Obs

type mode = Interned | Structural

let mode_tag = function Interned -> "interned" | Structural -> "structural"

let default_mode =
  let cached =
    lazy
      (match Sys.getenv_opt "BDDFC_TEST_HC" with
      | Some "structural" -> Structural
      | _ -> Interned)
  in
  fun () -> Lazy.force cached

(* Registry handles (always on). *)
let m_lookups = Obs.Metrics.counter "hc.lookups"
let m_hits = Obs.Metrics.counter "hc.hits"
let m_resets = Obs.Metrics.counter "hc.resets"
let g_nodes = Obs.Metrics.gauge "hc.nodes"
let m_eval_lookups = Obs.Metrics.counter "hc.eval_memo_lookups"
let m_eval_hits = Obs.Metrics.counter "hc.eval_memo_hits"

(* ---------------- canonicalization ---------------- *)

let canon_prefix = "_hc"

(* Rename every variable to _hc<k> by first occurrence: answer variables
   first, then body atoms left to right, arguments left to right.  The
   renaming is total and injective (a fresh canonical name per distinct
   original), so it is capture-free whatever the input names — even
   inputs already using _hc<k>. *)
let canonicalize (q : Cq.t) =
  (* The renaming lives in an assoc list, newest-first: the queries this
     store sees are overwhelmingly tiny (a handful of distinct
     variables), and a per-call [Hashtbl.create] costs more than the
     whole linear scan at that size.  The list IS the occurrence order,
     so [order] falls out for free. *)
  let tbl = ref [] in
  let next = ref 0 in
  let rename x =
    match List.assoc_opt x !tbl with
    | Some y -> y
    | None ->
        let y = canon_prefix ^ string_of_int !next in
        incr next;
        tbl := (x, y) :: !tbl;
        y
  in
  List.iter (fun x -> ignore (rename x)) (Cq.answer q);
  let body =
    List.map
      (fun a ->
        let args =
          List.map
            (function Term.Var x -> Term.Var (rename x) | t -> t)
            (Atom.args a)
        in
        (* Atom.make without ?loc: canonical atoms carry Loc.none, so the
           unique table can never key on source positions (PR 3
           invariant) *)
        Atom.make (Atom.pred a) args)
      (Cq.body q)
  in
  let answer = List.map (fun x -> List.assoc x !tbl) (Cq.answer q) in
  (Cq.make ~answer body, List.rev !tbl)

(* ---------------- the unique table ---------------- *)

(* Atom keys: derived equality (loc-blind) with a matching loc-free hash
   folding over *every* argument — the PR 5 Fact.hash discipline;
   Hashtbl.hash both reads loc (breaking the equal/hash contract) and
   stops after ~10 nodes (collision piles on long atoms). *)
module Atom_key = struct
  type t = Atom.t

  let equal = Atom.equal

  let hash (a : Atom.t) =
    let p = Atom.pred a in
    let h = ref (Pred.hash p) in
    let mix c = h := ((!h * 31) + Char.code c + 1) land max_int in
    List.iter
      (fun t ->
        let tag, s =
          match t with Term.Var x -> (1, x) | Term.Cst c -> (2, c)
        in
        h := ((!h * 31) + tag) land max_int;
        String.iter mix s)
      (Atom.args a);
    !h
end

module Atom_tbl = Hashtbl.Make (Atom_key)

(* CQ keys over interned atoms: the answer tuple (canonical names, so
   only multiplicity patterns distinguish same-length answers) and the
   body as an atom-id list.  Hash folds the full lists. *)
module Cq_key = struct
  type t = { answer : string list; atoms : int list }

  let equal a b = a.answer = b.answer && a.atoms = b.atoms

  let hash { answer; atoms } =
    let h = ref 17 in
    List.iter
      (fun s ->
        String.iter
          (fun c -> h := ((!h * 31) + Char.code c + 1) land max_int)
          s;
        h := ((!h * 31) + 7) land max_int)
      answer;
    List.iter (fun i -> h := ((!h * 31) + i + 1) land max_int) atoms;
    !h
end

module Cq_tbl = Hashtbl.Make (Cq_key)

type store = {
  atoms : int Atom_tbl.t;
  mutable next_atom : int;
  cqs : int Cq_tbl.t;
  mutable next_cq : int;
  rev : (int, Cq.t) Hashtbl.t; (* cq id -> canonical representative *)
  eval_memo : (int * int * int * (string * Element.id) list * int, bool)
      Hashtbl.t;
      (* (token, version, cq id, sorted canonical anchors, engine) *)
}

let st =
  {
    atoms = Atom_tbl.create 256;
    next_atom = 0;
    cqs = Cq_tbl.create 256;
    next_cq = 0;
    rev = Hashtbl.create 256;
    eval_memo = Hashtbl.create 256;
  }

let nodes_gauge () = Obs.Metrics.set g_nodes (st.next_atom + st.next_cq)

let intern_atom a =
  Obs.Metrics.incr m_lookups;
  match Atom_tbl.find_opt st.atoms a with
  | Some id ->
      Obs.Metrics.incr m_hits;
      id
  | None ->
      let id = st.next_atom in
      st.next_atom <- id + 1;
      Atom_tbl.replace st.atoms a id;
      nodes_gauge ();
      id

(* Physical-identity fast path in front of canonicalization, the
   {!Plan} cache trick: the ptype sweeps and the converge trace
   re-evaluate the same retained [Cq.t] values many times over, and
   re-canonicalizing each time would cost more than the memo saves.
   [Hashtbl.hash] is depth-bounded and agrees on physically equal keys;
   physically distinct but structurally equal queries just canonicalize
   again and land on the same id. *)
module Phys_tbl = Hashtbl.Make (struct
  type t = Cq.t

  let equal = ( == )
  let hash = Hashtbl.hash
end)

let phys : (int * (string * string) list) Phys_tbl.t = Phys_tbl.create 256
let phys_cap = 4096

let intern_renamed_slow q =
  let canon, ren = canonicalize q in
  let atom_ids = List.map intern_atom (Cq.body canon) in
  let key = { Cq_key.answer = Cq.answer canon; atoms = atom_ids } in
  Obs.Metrics.incr m_lookups;
  match Cq_tbl.find_opt st.cqs key with
  | Some id ->
      Obs.Metrics.incr m_hits;
      (id, ren)
  | None ->
      let id = st.next_cq in
      st.next_cq <- id + 1;
      Cq_tbl.replace st.cqs key id;
      Hashtbl.replace st.rev id canon;
      nodes_gauge ();
      (id, ren)

let intern_renamed q =
  match Phys_tbl.find_opt phys q with
  | Some cached ->
      Obs.Metrics.incr m_lookups;
      Obs.Metrics.incr m_hits;
      cached
  | None ->
      let result = intern_renamed_slow q in
      if Phys_tbl.length phys >= phys_cap then Phys_tbl.reset phys;
      Phys_tbl.replace phys q result;
      result

let intern q = fst (intern_renamed q)
let node id = Hashtbl.find st.rev id
let same q1 q2 = intern q1 = intern q2
let store_size () = (st.next_atom, st.next_cq)

(* ---------------- the evaluation memo ---------------- *)

let engine_code = function
  | None -> 0
  | Some Eval.Compiled -> 1
  | Some Eval.Interp -> 2

let holds_memo ?engine inst ~init (q : Cq.t) =
  let id, ren = intern_renamed q in
  let canon = node id in
  (* Anchors into the canonical namespace; an anchor on a variable the
     body never mentions is inert under Eval (pre-bound but never
     consulted), so dropping it preserves the verdict while keeping the
     key α-canonical. *)
  let anchors =
    List.sort compare
      (List.filter_map
         (fun (x, e) ->
           match List.assoc_opt x ren with
           | Some cx -> Some (cx, e)
           | None -> None)
         init)
  in
  let key =
    (Instance.token inst, Instance.version inst, id, anchors,
     engine_code engine)
  in
  Obs.Metrics.incr m_eval_lookups;
  match Hashtbl.find_opt st.eval_memo key with
  | Some v ->
      Obs.Metrics.incr m_eval_hits;
      v
  | None ->
      let binding =
        List.fold_left
          (fun acc (x, e) -> Smap.add x e acc)
          Smap.empty anchors
      in
      let v = Eval.satisfiable ~init:binding ?engine inst (Cq.body canon) in
      Hashtbl.replace st.eval_memo key v;
      v

(* ---------------- lifecycle ---------------- *)

let reset () =
  Phys_tbl.reset phys;
  Atom_tbl.reset st.atoms;
  st.next_atom <- 0;
  Cq_tbl.reset st.cqs;
  st.next_cq <- 0;
  Hashtbl.reset st.rev;
  Hashtbl.reset st.eval_memo;
  Obs.Metrics.incr m_resets;
  nodes_gauge ()
