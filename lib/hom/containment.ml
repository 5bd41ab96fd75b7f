(* Conjunctive-query containment via the canonical (frozen) instance.

   [q1] is contained in [q2] (every answer of q1 is an answer of q2, over
   all instances) iff there is a homomorphism from q2 into the frozen body
   of q1 mapping answer variables of q2 to the frozen answer variables of
   q1 in order.

   Two modes (Hc.mode, default Interned).  The structural path is the
   original code, kept as the differential oracle.  The interned path
   prepares both sides: a signature test refutes most hopeless pairs
   without building a frozen instance — the cheap test before the
   expensive apply of a BDD package — and every other pair runs the
   general side's compiled body over the specific side's frozen
   instance, each built once and kept with its prepared value.  Nothing
   is cached across calls: a prepared value lives as long as its holder
   keeps it. *)

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

(* The homomorphism search over a frozen instance of [specific] ([frz]
   the freezing), answer variables of [general] bound positionally to
   the frozen answer variables of [specific].  [body] is [general]'s
   body, prepared by the caller.  Answer arities must match. *)
let search ?engine ~(general : Cq.t) body inst frz (specific : Cq.t) =
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
  Eval.first_env ~init ?engine inst body <> None

(* The original uncached decision, byte for byte: the differential
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

(* A query prepared for many containment tests: its signature, its
   frozen instance (for the specific side) and its compiled body (for
   the general side), built on first use and kept with it.  All are
   read off the query as given; containment is invariant under
   renaming, and so are the verdicts they yield. *)
type prepared = {
  cq : Cq.t;
  hc : Hc.mode;
  needs : int array Lazy.t;
  hosts : int array Lazy.t;
  frozen : (Instance.t * Subst.t) Lazy.t;
  body : Eval.prepared Lazy.t;
}

let mode = function Some m -> m | None -> Hc.default_mode ()

let prepare ?hc (q : Cq.t) =
  {
    cq = q;
    hc = mode hc;
    needs = lazy (needs q);
    hosts = lazy (hosts q);
    frozen = lazy (frozen_instance q);
    body = lazy (Eval.prepare (Cq.body q));
  }

let query p = p.cq
let signature p = (Lazy.force p.needs, Lazy.force p.hosts)

let rejects ~general specific =
  (not (same_arity general.cq specific.cq))
  || not (subset (Lazy.force general.needs) (Lazy.force specific.hosts))

let m_index_rejects = Bddfc_obs.Obs.Metrics.counter "containment.index_rejects"
let m_searches = Bddfc_obs.Obs.Metrics.counter "containment.searches"

(* [prepared_subsumes ~general specific]: does [general] hold whenever
   [specific] does (i.e. specific is contained in general)?  Under
   [Interned] the signatures settle the pair first, and a pair they let
   through searches the specific side's kept frozen instance. *)
let prepared_subsumes ?engine ~general specific =
  match specific.hc with
  | Hc.Structural ->
      subsumes_structural ?engine ~general:general.cq specific.cq
  | Hc.Interned ->
      if rejects ~general specific then begin
        Bddfc_obs.Obs.Metrics.incr m_index_rejects;
        false
      end
      else begin
        Bddfc_obs.Obs.Metrics.incr m_searches;
        let inst, frz = Lazy.force specific.frozen in
        search ?engine ~general:general.cq (Lazy.force general.body) inst frz
          specific.cq
      end

let subsumes ?engine ?hc ~(general : Cq.t) (specific : Cq.t) =
  let hc = mode hc in
  prepared_subsumes ?engine ~general:(prepare ~hc general)
    (prepare ~hc specific)

(* Core (minimization) of a CQ: remove atoms whose deletion preserves
   equivalence.  The result is homomorphically equivalent to the input.

   The query is frozen once, and one pass over its atoms decides each
   removal with one homomorphism search, charging
   [containment.searches]: the atom's fact leaves the frozen instance,
   the query's body is searched for in what is left, and the fact goes
   back when the search fails.  A fact that another remaining atom also
   freezes to stays in the instance, so a duplicate atom always goes.
   The remaining body is equivalent to the query, so searching the
   query's own body is the same test, and one plan, compiled here,
   serves every search of the call.

   One pass removes the same atoms as restarting from the first atom
   after every removal: an atom that cannot be removed from a body
   cannot be removed from an equivalent sub-body either, since a
   homomorphism from the sub-body into the rest, after one from the body
   into the sub-body, would remove it from the body.  Bodies of 0 or 1
   atoms, and queries with nothing to remove, are returned as they
   are. *)
let minimize ?engine (q : Cq.t) =
  match Cq.body q with
  | [] | [ _ ] -> q
  | body ->
      let inst, frz = frozen_instance q in
      let plan = Eval.prepare body in
      let fact a =
        Fact.make (Atom.pred a)
          (Array.of_list
             (List.map
                (function
                  | Term.Cst c -> Instance.const inst c
                  | Term.Var x -> invalid_arg ("Containment.minimize: " ^ x))
                (Atom.args a)))
      in
      let facts = Array.of_list (List.map fact (Subst.apply_atoms frz body)) in
      let alive = Array.make (Array.length facts) true in
      let shared i =
        let rec go j =
          j < Array.length facts
          && ((j <> i && alive.(j) && Fact.equal facts.(j) facts.(i))
             || go (j + 1))
        in
        go 0
      in
      Array.iteri
        (fun i f ->
          let drop = not (shared i) in
          if drop then ignore (Instance.remove_facts inst [ f ]);
          Bddfc_obs.Obs.Metrics.incr m_searches;
          if search ?engine ~general:q plan inst frz q then alive.(i) <- false
          else if drop then ignore (Instance.add_fact inst f))
        facts;
      if Array.for_all Fun.id alive then q
      else
        Cq.make ~answer:(Cq.answer q) (List.filteri (fun j _ -> alive.(j)) body)
