(* Conjunctive-query containment via the canonical (frozen) body.

   [q1] is contained in [q2] (every answer of q1 is an answer of q2, over
   all instances) iff there is a homomorphism from q2 into the frozen body
   of q1 mapping answer variables of q2 to the frozen answer variables of
   q1 in order.

   Both sides are prepared once, as int-coded queries: a signature test
   refutes most hopeless pairs — the cheap test before the expensive
   apply of a BDD package — and every other pair is one run of a small
   matcher from the general side's atoms into the specific side's,
   grouped by predicate.  The matcher is also the only search behind
   [minimize].  No [Instance] or plan is built, and nothing is cached
   across calls: a prepared value lives as long as its holder keeps
   it.  The test suite holds the matcher to an independent oracle that
   freezes the specific side into an [Instance] and evaluates the
   general side over it (test/reference_containment.ml). *)

open Bddfc_logic

let same_arity (g : Cq.t) (s : Cq.t) =
  List.length (Cq.answer g) = List.length (Cq.answer s)

(* ---------------- the int-coded query ---------------- *)

(* A query as the matcher reads it.  Variables are registers [0, nvars)
   and constants the negative codes [-1 - k], [k] indexing [consts].
   [args] is the general side's reading of each atom.  [sargs] is the
   specific side's, the frozen body: a constant spelled like a frozen
   variable of the query freezes to that variable's term, so it reads
   as the variable's register there ([cvalues] gives each constant's
   reading; [sargs] is [args] when no constant is so spelled).  Atoms
   are grouped by predicate id ([preds]): [group.(i)] lists the atoms
   of atom [i]'s predicate, one array shared by the group.  [answer]
   holds the answer variables' registers and [order] the order in
   which the general side matches its atoms. *)
type code = {
  preds : int array;
  args : int array array;
  sargs : int array array;
  var_names : string array;
  consts : string array;
  cvalues : int array;
  group : int array array;
  answer : int array;
  order : int array;
}

let find_name names n s =
  let rec go i =
    if i = n then -1 else if String.equal names.(i) s then i else go (i + 1)
  in
  go 0

(* [Cq.frozen_name x] is this prefix followed by [x]. *)
let frozen_prefix = Cq.frozen_name ""

(* The register of the variable whose frozen name is [c], or -1. *)
let frozen_var var_names c =
  let lp = String.length frozen_prefix in
  if String.length c > lp && String.starts_with ~prefix:frozen_prefix c then
    find_name var_names (Array.length var_names)
      (String.sub c lp (String.length c - lp))
  else -1

(* The general side's order: answer variables count as bound; next comes
   the atom with the most constant or bound positions, then the one
   with the fewest atoms of its predicate, then the first. *)
let match_order args group answer nvars =
  let n = Array.length args in
  let bound = Array.make nvars false in
  Array.iter (fun r -> bound.(r) <- true) answer;
  let placed = Array.make n false in
  Array.init n (fun _ ->
      let best = ref (-1) and best_bound = ref (-1) and best_size = ref 0 in
      for i = 0 to n - 1 do
        if not placed.(i) then begin
          let b =
            Array.fold_left
              (fun b x -> if x < 0 || bound.(x) then b + 1 else b)
              0 args.(i)
          in
          let size = Array.length group.(i) in
          if b > !best_bound || (b = !best_bound && size < !best_size)
          then begin
            best := i;
            best_bound := b;
            best_size := size
          end
        end
      done;
      placed.(!best) <- true;
      Array.iter (fun x -> if x >= 0 then bound.(x) <- true) args.(!best);
      !best)

let code (q : Cq.t) =
  let body = Array.of_list (Cq.body q) in
  let n = Array.length body in
  let width = Array.fold_left (fun w a -> w + Atom.arity a) 0 body in
  let vars = Array.make width "" and nv = ref 0 in
  let csts = Array.make width "" and nc = ref 0 in
  let intern names count s =
    match find_name names !count s with
    | -1 ->
        names.(!count) <- s;
        incr count;
        !count - 1
    | i -> i
  in
  let args =
    Array.map
      (fun a ->
        Array.of_list
          (List.map
             (function
               | Term.Var x -> intern vars nv x
               | Term.Cst c -> -1 - intern csts nc c)
             (Atom.args a)))
      body
  in
  let var_names = Array.sub vars 0 !nv and consts = Array.sub csts 0 !nc in
  let cvalues =
    Array.mapi
      (fun k c -> match frozen_var var_names c with -1 -> -1 - k | r -> r)
      consts
  in
  let sargs =
    if Array.for_all (fun v -> v < 0) cvalues then args
    else
      Array.map
        (Array.map (fun x -> if x >= 0 then x else cvalues.(-1 - x)))
        args
  in
  let preds = Array.map (fun a -> Pred.id (Atom.pred a)) body in
  let group = Array.make n [||] in
  Array.iteri
    (fun i p ->
      if Array.length group.(i) = 0 then begin
        let g =
          Array.of_list
            (List.filter (fun j -> preds.(j) = p) (List.init n Fun.id))
        in
        Array.iter (fun j -> group.(j) <- g) g
      end)
    preds;
  let answer =
    Array.of_list (List.map (find_name var_names !nv) (Cq.answer q))
  in
  {
    preds;
    args;
    sargs;
    var_names;
    consts;
    cvalues;
    group;
    answer;
    order = match_order args group answer !nv;
  }

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
let shape_start pred_id = mix 0x2545f4914f6cdd1d pred_id
let shape_code h = h land max_int
let join_pos_bound = 32
let join_pred_bound = 1 lsl 23

let occurrence pred_id i =
  if i < join_pos_bound && pred_id < join_pred_bound then
    (pred_id * join_pos_bound) + i
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

(* The terms of a coded query position by position, flattened ([terms]
   is [args] or [sargs]), with their packed occurrences (-1 past the
   packing bounds). *)
let occurrences (c : code) terms =
  let vals = Array.concat (Array.to_list terms) in
  let occs = Array.make (Array.length vals) (-1) and k = ref 0 in
  Array.iteri
    (fun i a ->
      Array.iteri
        (fun p _ ->
          occs.(!k) <- occurrence c.preds.(i) p;
          incr k)
        a)
    terms;
  (vals, occs)

(* Joins between two occurrences of one term, [keep] saying which terms
   count.  Two occurrences at the same position of one predicate need
   nothing beyond that predicate's shape, so they carry no feature. *)
let joins ~keep (vals, occs) acc =
  let acc = ref acc in
  let n = Array.length vals in
  for i = 0 to n - 1 do
    let oi = occs.(i) in
    if oi >= 0 && keep vals.(i) then
      for j = i + 1 to n - 1 do
        let oj = occs.(j) in
        if oj >= 0 && oj <> oi && vals.(j) = vals.(i) then
          acc := join_code oi oj :: !acc
      done
  done;
  !acc

(* The general side reads its atoms as written: a constant by its
   spelling, a variable by the first position of the same register in
   the atom. *)
let needs (c : code) =
  let chash = Array.map (hash_string 0) c.consts in
  let shape i a =
    let h = ref (shape_start c.preds.(i)) in
    Array.iter
      (fun x ->
        if x < 0 then h := const_slot !h chash.(-1 - x)
        else begin
          let j = ref 0 in
          while a.(!j) <> x do
            incr j
          done;
          h := var_slot !h !j
        end)
      a;
    shape_code !h
  in
  sorted_unique
    (joins ~keep:(fun x -> x >= 0) (occurrences c c.args)
       (Array.to_list (Array.mapi shape c.args)))

(* Every shape one atom [b] of the frozen body satisfies, by a walk over
   its positions that extends the hash as it goes: position i holds a
   constant, starts a variable, or repeats an earlier variable over the
   same frozen term.  [hash] is a frozen term's hash. *)
let atom_hosts hash pred_id (b : int array) acc =
  let n = Array.length b in
  let var_start = Array.make n false in
  let rec go i h acc =
    if i = n then shape_code h :: acc
    else begin
      let acc = go (i + 1) (const_slot h (hash b.(i))) acc in
      var_start.(i) <- true;
      let acc = go (i + 1) (var_slot h i) acc in
      var_start.(i) <- false;
      let acc = ref acc in
      for j = 0 to i - 1 do
        if var_start.(j) && b.(j) = b.(i) then
          acc := go (i + 1) (var_slot h j) !acc
      done;
      !acc
    end
  in
  go 0 (shape_start pred_id) acc

(* The specific side reads its atoms frozen ([sargs]): a variable as the
   spelling of its frozen constant, so it hashes like a constant so
   spelled. *)
let hosts (c : code) =
  let vhash =
    Array.map (fun x -> hash_string 0 (Cq.frozen_name x)) c.var_names
  and chash = Array.map (hash_string 0) c.consts in
  let hash v = if v >= 0 then vhash.(v) else chash.(-1 - v) in
  let shapes = ref [] in
  Array.iteri
    (fun i b -> shapes := atom_hosts hash c.preds.(i) b !shapes)
    c.sargs;
  sorted_unique (joins ~keep:(fun _ -> true) (occurrences c c.sargs) !shapes)

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

(* ---------------- the matcher ---------------- *)

let unbound = min_int

(* The frozen term a constant of the general side meets on the specific
   side: a constant of the same spelling, or the variable whose frozen
   name it is.  [unbound], which no term reads as, when it meets
   nothing. *)
let reading (s : code) c =
  match find_name s.consts (Array.length s.consts) c with
  | -1 -> ( match frozen_var s.var_names c with -1 -> unbound | r -> r)
  | k -> s.cvalues.(k)

(* The first atom of the specific side with predicate id [p], or -1. *)
let pred_atom (s : code) p =
  let rec go j =
    if j = Array.length s.preds then -1
    else if s.preds.(j) = p then j
    else go (j + 1)
  in
  go 0

(* One search of the matcher: [general]'s atoms in its order, each tried
   against [cands.(d)], the specific atoms of its predicate, skipping
   those [alive] masks (an empty [alive] masks none).  [tr] reads the
   general side's constants in the specific side's coding.  Variable
   bindings live in [env]; [trail.(0 .. top - 1)] lists the registers
   bound so far, so a backtrack unbinds back to a mark. *)
type search = {
  g : code;
  s : code;
  tr : int array;
  cands : int array array;
  alive : bool array;
  env : int array;
  trail : int array;
  mutable top : int;
}

let undo st mark =
  while st.top > mark do
    st.top <- st.top - 1;
    st.env.(st.trail.(st.top)) <- unbound
  done

(* Extend the bindings so that general atom [a] maps onto specific
   atom [b], from position [p] on. *)
let rec unify st a b p =
  p = Array.length a
  ||
  let x = a.(p) and v = b.(p) in
  if x < 0 then st.tr.(-1 - x) = v && unify st a b (p + 1)
  else
    let e = st.env.(x) in
    if e = unbound then begin
      st.env.(x) <- v;
      st.trail.(st.top) <- x;
      st.top <- st.top + 1;
      unify st a b (p + 1)
    end
    else e = v && unify st a b (p + 1)

let rec descend st d =
  d = Array.length st.cands || try_atoms st d st.top 0

and try_atoms st d mark c =
  let cs = st.cands.(d) in
  c < Array.length cs
  &&
  let j = cs.(c) in
  ((Array.length st.alive = 0 || st.alive.(j))
   && unify st st.g.args.(st.g.order.(d)) st.s.sargs.(j) 0
   && descend st (d + 1))
  || begin
       undo st mark;
       try_atoms st d mark (c + 1)
     end

(* Is there a homomorphism from the general side into the frozen body of
   the specific side, answer variables positionally to answer
   variables?  Answer arities must match.  A general atom whose
   predicate the specific side lacks has no candidates, and a constant
   the specific side lacks reads as [unbound]: either fails its atom. *)
let matches ?(alive = [||]) ~(general : code) (specific : code) =
  let g = general and s = specific in
  let nv = Array.length g.var_names in
  let env = Array.make nv unbound in
  Array.iteri
    (fun k r -> if r >= 0 && s.answer.(k) >= 0 then env.(r) <- s.answer.(k))
    g.answer;
  descend
    {
      g;
      s;
      tr = (if g == s then s.cvalues else Array.map (reading s) g.consts);
      cands =
        Array.map
          (fun i ->
            match pred_atom s g.preds.(i) with -1 -> [||] | j -> s.group.(j))
          g.order;
      alive;
      env;
      trail = Array.make nv 0;
      top = 0;
    }
    0

(* ---------------- prepared queries ---------------- *)

(* A query prepared for many containment tests: its int coding, built
   at once, and its signature, built on first use, both kept with it.
   Both are read off the query as given; containment is invariant under
   renaming, and so are the verdicts they yield. *)
type prepared = {
  cq : Cq.t;
  code : code;
  needs : int array Lazy.t;
  hosts : int array Lazy.t;
}

let prepare (q : Cq.t) =
  let c = code q in
  { cq = q; code = c; needs = lazy (needs c); hosts = lazy (hosts c) }

let query p = p.cq
let signature p = (Lazy.force p.needs, Lazy.force p.hosts)

let rejects ~general specific =
  (not (same_arity general.cq specific.cq))
  || not (subset (Lazy.force general.needs) (Lazy.force specific.hosts))

let m_index_rejects = Bddfc_obs.Obs.Metrics.counter "containment.index_rejects"
let m_searches = Bddfc_obs.Obs.Metrics.counter "containment.searches"

(* [prepared_subsumes ~general specific]: does [general] hold whenever
   [specific] does (i.e. specific is contained in general)?  The
   signatures settle the pair first, and a pair they let through is one
   run of the matcher. *)
let prepared_subsumes ~general specific =
  if rejects ~general specific then begin
    Bddfc_obs.Obs.Metrics.incr m_index_rejects;
    false
  end
  else begin
    Bddfc_obs.Obs.Metrics.incr m_searches;
    matches ~general:general.code specific.code
  end

let subsumes ~(general : Cq.t) (specific : Cq.t) =
  prepared_subsumes ~general:(prepare general) (prepare specific)

(* Core (minimization) of a CQ: remove atoms whose deletion preserves
   equivalence.  The result is homomorphically equivalent to the input.

   One pass over the atoms decides each removal with one run of the
   matcher, charging [containment.searches]: the atom is masked out of
   the query's frozen body, and the query's whole body is matched
   against what is left.  The remaining body is equivalent to the
   query, so matching the query's own body is the same test.  An atom
   another remaining atom duplicates always goes.  An atom with no
   other remaining atom of its predicate carrying its constants at its
   constant positions has nothing to map to, so it stays without a
   search.

   One pass removes the same atoms as restarting from the first atom
   after every removal: an atom that cannot be removed from a body
   cannot be removed from an equivalent sub-body either, since a
   homomorphism from the sub-body into the rest, after one from the body
   into the sub-body, would remove it from the body.  A query with
   nothing to remove comes back as the value it was given. *)
let minimize p =
  let c = p.code in
  let n = Array.length c.args in
  let alive = Array.make n true in
  let hostable i =
    let a = c.args.(i) and sa = c.sargs.(i) in
    Array.exists
      (fun j ->
        j <> i && alive.(j)
        &&
        let sb = c.sargs.(j) in
        let rec same k =
          k = Array.length a
          || ((a.(k) >= 0 || sb.(k) = sa.(k)) && same (k + 1))
        in
        same 0)
      c.group.(i)
  in
  for i = 0 to n - 1 do
    if hostable i then begin
      Bddfc_obs.Obs.Metrics.incr m_searches;
      alive.(i) <- false;
      if not (matches ~alive ~general:c c) then alive.(i) <- true
    end
  done;
  if Array.for_all Fun.id alive then p
  else
    prepare
      (Cq.make ~answer:(Cq.answer p.cq)
         (List.filteri (fun j _ -> alive.(j)) (Cq.body p.cq)))
