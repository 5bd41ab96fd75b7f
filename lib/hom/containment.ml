(* Conjunctive-query containment via the canonical (frozen) instance.

   [q1] is contained in [q2] (every answer of q1 is an answer of q2, over
   all instances) iff there is a homomorphism from q2 into the frozen body
   of q1 mapping answer variables of q2 to the frozen answer variables of
   q1 in order.

   Two modes (Hc.mode, default Interned): the structural path below is
   the original code, kept verbatim as the differential oracle; the
   interned path routes each (general, specific) pair through the Hc
   unique table and replays cached verdicts by id.  Containment is
   invariant under α-renaming of either query, so verdicts computed on
   the canonical representatives are correct for every α-variant pair
   hitting the same ids.

   On a memo miss the interned path first runs [shape_rejects], a
   cheap atom-shape test that refutes most hopeless pairs without
   building the frozen instance — the computed-table discipline of a
   BDD package: the cheap test before the expensive apply.  It sits
   inside the memo's compute, so lookups and hits keep their meaning,
   and the structural oracle never sees it. *)

open Bddfc_logic
open Bddfc_structure

(* The canonical instance of a query: variables frozen into fresh
   constants.  The substitution records the freezing. *)
let frozen_instance (q : Cq.t) =
  let atoms, frz = Cq.freeze q in
  let inst = Instance.of_atoms atoms in
  (inst, frz)

let same_arity (g : Cq.t) (s : Cq.t) =
  List.length (Cq.answer g) = List.length (Cq.answer s)

(* The homomorphism search, witness included, over a frozen instance of
   [specific] ([frz] the freezing): a satisfying binding of [general]'s
   body, read back as a substitution into [specific]'s terms (frozen
   constants thawed to the variables they froze).  Answer arities must
   match. *)
let search ?engine ~(general : Cq.t) inst frz (specific : Cq.t) =
  let init =
    List.fold_left2
      (fun acc xg xs ->
        match Subst.find_opt xs frz with
        | Some (Term.Cst c) -> (
            match Instance.const_opt inst c with
            | Some id -> Smap.add xg id acc
            | None -> acc)
        | _ -> acc)
      Smap.empty (Cq.answer general) (Cq.answer specific)
  in
  match Eval.first_solution ~init ?engine inst (Cq.body general) with
  | None -> (false, None)
  | Some b ->
      let thaw = Hashtbl.create 16 in
      List.iter
        (fun (x, t) ->
          match t with
          | Term.Cst c -> Hashtbl.replace thaw c x
          | Term.Var _ -> ())
        (Subst.bindings frz);
      let w =
        Smap.fold
          (fun v id acc ->
            match Instance.const_name inst id with
            | Some c -> (
                match Hashtbl.find_opt thaw c with
                | Some x -> Subst.add v (Term.Var x) acc
                | None -> Subst.add v (Term.Cst c) acc)
            | None -> acc)
          b Subst.empty
      in
      (true, Some w)

(* The structural decision, witness included. *)
let subsumes_core ?engine ~(general : Cq.t) (specific : Cq.t) =
  if not (same_arity general specific) then (false, None)
  else begin
    let inst, frz = frozen_instance specific in
    search ?engine ~general inst frz specific
  end

(* The original verdict-only decision, byte for byte: the differential
   oracle must not even change its evaluation shape. *)
let subsumes_structural ?engine ~(general : Cq.t) (specific : Cq.t) =
  if List.length (Cq.answer general) <> List.length (Cq.answer specific) then
    false
  else begin
    let inst, frz = frozen_instance specific in
    let init =
      List.fold_left2
        (fun acc xg xs ->
          match Subst.find_opt xs frz with
          | Some (Term.Cst c) -> (
              match Instance.const_opt inst c with
              | Some id -> Smap.add xg id acc
              | None -> acc)
          | _ -> acc)
        Smap.empty (Cq.answer general) (Cq.answer specific)
    in
    Eval.satisfiable ~init ?engine inst (Cq.body general)
  end

(* ---------------- signatures ---------------- *)

(* A necessary condition for a homomorphism from [general] into the
   frozen body of [specific], as two sorted int arrays: what [general]
   needs and what [specific] hosts.  A homomorphism exists only if
   needs ⊆ hosts.

   Shape features (codes >= 0): each atom of [general] needs a target
   atom with the same predicate, the same constant wherever [general]
   has a constant, and equal terms wherever [general] repeats a
   variable.  A shape is the predicate, then per position either the
   constant or the first position of the same variable in the atom.  A
   target atom hosts every shape it satisfies: each position may hold a
   constant (its frozen term) or a variable, and a variable may repeat
   an earlier one over the same frozen term.

   Join features (codes < 0): a variable [general] shares between
   position i of a p-atom and position j of a p'-atom needs a term of
   [specific] that sits at both.  Hosts pair two positions of one atom
   too, because homomorphisms need not be injective: e(X,Y), e(Y,Z)
   maps into e(a,a).  Nothing here counts atoms.  Two occurrences at
   the same position of one predicate give no feature: that
   predicate's shape already asks for it.

   Terms of [specific] are read as [Cq.freeze] leaves them, so a
   constant spelled like a frozen variable meets that variable.

   Shape codes are 62-bit hashes, so no table grows with the shapes a
   process meets.  A collision can only make a missing shape look
   hosted, which lets a pair through to the homomorphism search; it can
   never reject a pair.  Joins pack (predicate id, position) pairs
   exactly; occurrences past the packing bounds carry no join feature
   on either side, which only weakens the test. *)

let mix h x =
  let h = (h lxor x) * 0x1f3d5b799e3779b9 in
  h lxor (h lsr 29)

let hash_string h s =
  let h = ref (mix h (String.length s)) in
  String.iter (fun c -> h := mix !h (Char.code c)) s;
  !h

let const_slot h hc = mix (mix h 1) hc
let var_slot h first = mix (mix h 2) first
let shape_start pred = mix 0x2545f4914f6cdd1d (Pred.id pred)
let shape_code h = h land max_int
let join_pos_bound = 32
let join_pred_bound = 1 lsl 23

let occurrence pred i =
  if i < join_pos_bound && Pred.id pred < join_pred_bound then
    (Pred.id pred * join_pos_bound) + i
  else -1

let join_code (o1 : int) (o2 : int) =
  let lo = min o1 o2 and hi = max o1 o2 in
  -1 - ((lo * (join_pred_bound * join_pos_bound)) + hi)

(* Signatures hold a few dozen codes, where an insertion sort is the
   fastest. *)
let sorted_unique (l : int list) =
  let a = Array.of_list l in
  let n = Array.length a in
  if n > 32 then Array.sort (fun (x : int) y -> compare x y) a
  else
    for i = 1 to n - 1 do
      let x = a.(i) in
      let j = ref (i - 1) in
      while !j >= 0 && a.(!j) > x do
        a.(!j + 1) <- a.(!j);
        decr j
      done;
      a.(!j + 1) <- x
    done;
  if n = 0 then a
  else begin
    let k = ref 1 in
    for i = 1 to n - 1 do
      if a.(i) <> a.(!k - 1) then begin
        a.(!k) <- a.(i);
        incr k
      end
    done;
    Array.sub a 0 !k
  end

(* The occurrences of a query's terms, position by position: the term's
   key (a variable name for needs, a frozen term for hosts), its hash and
   its packed occurrence (-1 past the packing bounds). *)
type occurrences = {
  keys : string array;
  hashes : int array;
  occs : int array;
}

let occurrences (q : Cq.t) key =
  let n = List.fold_left (fun n a -> n + Atom.arity a) 0 (Cq.body q) in
  let o =
    { keys = Array.make n ""; hashes = Array.make n 0; occs = Array.make n (-1) }
  in
  let k = ref 0 in
  List.iter
    (fun a ->
      List.iteri
        (fun i t ->
          let s = key t in
          o.keys.(!k) <- s;
          o.hashes.(!k) <- hash_string 0 s;
          o.occs.(!k) <- occurrence (Atom.pred a) i;
          incr k)
        (Atom.args a))
    (Cq.body q);
  o

(* Joins between two occurrences of one term, [keep] saying which terms
   count.  Two occurrences at the same position of one predicate need
   nothing beyond that predicate's shape, so they carry no feature. *)
let joins ~keep o acc =
  let acc = ref acc in
  let n = Array.length o.occs in
  for i = 0 to n - 1 do
    let oi = o.occs.(i) in
    if oi >= 0 && keep i then
      for j = i + 1 to n - 1 do
        let oj = o.occs.(j) in
        if oj >= 0 && oj <> oi && keep j
           && o.hashes.(i) = o.hashes.(j)
           && String.equal o.keys.(i) o.keys.(j)
        then acc := join_code oi oj :: !acc
      done
  done;
  !acc

let needs (q : Cq.t) =
  let o =
    occurrences q (function Term.Var x -> x | Term.Cst c -> c)
  in
  let is_var = Array.make (Array.length o.keys) false in
  let k = ref 0 in
  let shapes =
    List.map
      (fun a ->
        let base = !k in
        let h = ref (shape_start (Atom.pred a)) in
        List.iteri
          (fun i t ->
            (match t with
            | Term.Cst _ -> h := const_slot !h o.hashes.(base + i)
            | Term.Var _ ->
                is_var.(base + i) <- true;
                let j = ref 0 in
                while
                  not
                    (is_var.(base + !j)
                    && String.equal o.keys.(base + !j) o.keys.(base + i))
                do
                  incr j
                done;
                h := var_slot !h !j);
            incr k)
          (Atom.args a);
        shape_code !h)
      (Cq.body q)
  in
  sorted_unique (joins ~keep:(fun i -> is_var.(i)) o shapes)

(* Every shape one atom of the frozen body satisfies, by a walk over its
   positions that extends the hash as it goes: position i holds a
   constant, starts a variable, or repeats an earlier variable over the
   same frozen term. *)
let atom_hosts o base (a : Atom.t) acc =
  let n = Atom.arity a in
  let var_start = Array.make n false in
  let rec go i h acc =
    if i = n then shape_code h :: acc
    else begin
      let acc = go (i + 1) (const_slot h o.hashes.(base + i)) acc in
      var_start.(i) <- true;
      let acc = go (i + 1) (var_slot h i) acc in
      var_start.(i) <- false;
      let acc = ref acc in
      for j = 0 to i - 1 do
        if var_start.(j)
           && o.hashes.(base + j) = o.hashes.(base + i)
           && String.equal o.keys.(base + j) o.keys.(base + i)
        then acc := go (i + 1) (var_slot h j) !acc
      done;
      !acc
    end
  in
  go 0 (shape_start (Atom.pred a)) acc

let hosts (q : Cq.t) =
  let o =
    occurrences q (function Term.Var x -> Cq.frozen_name x | Term.Cst c -> c)
  in
  let _, shapes =
    List.fold_left
      (fun (base, acc) a ->
        (base + Atom.arity a, atom_hosts o base a acc))
      (0, []) (Cq.body q)
  in
  sorted_unique (joins ~keep:(fun _ -> true) o shapes)

let subset (needs : int array) (hosts : int array) =
  let n = Array.length needs and m = Array.length hosts in
  let rec go i j =
    if i = n then true
    else if j = m then false
    else
      let x = needs.(i) and y = hosts.(j) in
      if x = y then go (i + 1) (j + 1)
      else if x > y then go i (j + 1)
      else false
  in
  go 0 0

(* ---------------- prepared queries ---------------- *)

(* A query as the rewriting loop holds it: interned once, its signature
   and its frozen instance built on first use and kept with it.  They
   are built from the canonical representative, so a verdict computed
   here is the one the memo stores for the id pair. *)
type prepared = {
  cq : Cq.t;
  hc : Hc.mode;
  id : int; (* -1 under Structural *)
  needs : int array Lazy.t;
  hosts : int array Lazy.t;
  frozen : (Instance.t * Subst.t) Lazy.t;
}

let prepare ?hc (q : Cq.t) =
  let hc = match hc with Some m -> m | None -> Hc.default_mode () in
  let id, canon =
    match hc with
    | Hc.Interned ->
        let id = Hc.intern q in
        (id, Hc.node id)
    | Hc.Structural -> (-1, q)
  in
  {
    cq = q;
    hc;
    id;
    needs = lazy (needs canon);
    hosts = lazy (hosts canon);
    frozen = lazy (frozen_instance canon);
  }

let query p = p.cq
let signature p = (Lazy.force p.needs, Lazy.force p.hosts)

let rejects ~general specific =
  not (subset (Lazy.force general.needs) (Lazy.force specific.hosts))

let m_prefilter_rejects =
  Bddfc_obs.Obs.Metrics.counter "containment.prefilter_rejects"

let m_index_rejects = Bddfc_obs.Obs.Metrics.counter "containment.index_rejects"

(* The memo's compute on a pair nobody prepared: the signature test,
   then the homomorphism search. *)
let compute_interned ?engine g s =
  if not (same_arity g s) then (false, None)
  else if not (subset (needs g) (hosts s)) then begin
    Bddfc_obs.Obs.Metrics.incr m_prefilter_rejects;
    (false, None)
  end
  else
    let inst, frz = frozen_instance s in
    search ?engine ~general:g inst frz s

(* [prepared_subsumes ~general specific]: {!subsumes} on prepared
   queries.  Under [Interned] the signatures settle the pair before the
   memo is consulted, and a miss searches the specific side's kept
   frozen instance. *)
let prepared_subsumes ?engine ~general specific =
  match specific.hc with
  | Hc.Structural ->
      subsumes_structural ?engine ~general:general.cq specific.cq
  | Hc.Interned ->
      if rejects ~general specific then begin
        Bddfc_obs.Obs.Metrics.incr m_index_rejects;
        false
      end
      else
        fst
          (Hc.memo_subsumes ~general:general.id ~specific:specific.id
             (fun g s ->
               if not (same_arity g s) then (false, None)
               else
                 let inst, frz = Lazy.force specific.frozen in
                 search ?engine ~general:g inst frz s))

(* [subsumes ~general ~specific]: does [general] hold whenever [specific]
   does (i.e. specific is contained in general)?  Both must have the same
   answer arity. *)
let subsumes ?engine ?hc ~(general : Cq.t) (specific : Cq.t) =
  let hc = match hc with Some m -> m | None -> Hc.default_mode () in
  match hc with
  | Hc.Structural -> subsumes_structural ?engine ~general specific
  | Hc.Interned ->
      let gid = Hc.intern general in
      let sid = Hc.intern specific in
      fst
        (Hc.memo_subsumes ~general:gid ~specific:sid
           (compute_interned ?engine))

(* [subsumes], also returning the witness homomorphism (general's
   variables into specific's terms) when the verdict is positive.  The
   interned path caches witnesses in the canonical namespaces and
   translates through the two renamings. *)
let subsumes_witness ?engine ?hc ~(general : Cq.t) (specific : Cq.t) =
  let hc = match hc with Some m -> m | None -> Hc.default_mode () in
  match hc with
  | Hc.Structural -> subsumes_core ?engine ~general specific
  | Hc.Interned ->
      let gid, ren_g = Hc.intern_renamed general in
      let sid, ren_s = Hc.intern_renamed specific in
      let verdict, w_canon =
        Hc.memo_subsumes ~general:gid ~specific:sid
          (compute_interned ?engine)
      in
      let w =
        Option.map
          (fun wc ->
            let inv_s = List.map (fun (o, c) -> (c, o)) ren_s in
            List.fold_left
              (fun acc (xo, xc) ->
                match Subst.find_opt xc wc with
                | Some (Term.Var v) ->
                    let v' =
                      match List.assoc_opt v inv_s with
                      | Some o -> o
                      | None -> v
                    in
                    Subst.add xo (Term.Var v') acc
                | Some (Term.Cst c) -> Subst.add xo (Term.Cst c) acc
                | None -> acc)
              Subst.empty ren_g)
          w_canon
      in
      (verdict, w)

let equivalent ?engine ?hc q1 q2 =
  subsumes ?engine ?hc ~general:q1 q2 && subsumes ?engine ?hc ~general:q2 q1

(* Core (minimization) of a CQ: remove atoms whose deletion preserves
   equivalence.  The result is homomorphically equivalent to the input. *)
let minimize ?engine ?hc (q : Cq.t) =
  let removable body a =
    let body' = List.filter (fun x -> x != a) body in
    if body' = [] then false
    else
      let keep_answers =
        List.for_all
          (fun x -> Cq.SS.mem x (Atom.vars_of_atoms body'))
          (Cq.answer q)
      in
      keep_answers
      && subsumes ?engine ?hc ~general:q (Cq.make ~answer:(Cq.answer q) body')
  in
  let rec go body =
    match List.find_opt (removable body) body with
    | Some a -> go (List.filter (fun x -> x != a) body)
    | None -> body
  in
  Cq.make ~answer:(Cq.answer q) (go (Cq.body q))

(* UCQ-level subsumption pruning: keep only maximal disjuncts. *)
let prune_ucq ?engine ?hc (qs : Cq.t list) =
  let rec go kept = function
    | [] -> List.rev kept
    | q :: rest ->
        let dominated =
          List.exists (fun q' -> subsumes ?engine ?hc ~general:q' q) kept
          || List.exists (fun q' -> subsumes ?engine ?hc ~general:q' q) rest
        in
        if dominated then go kept rest else go (q :: kept) rest
  in
  go [] qs
