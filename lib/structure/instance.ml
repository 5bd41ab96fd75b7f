(* Finite relational structures ("database instances") over element ids.

   The store is mutable and dense.  Every fact is filed in:
     - the arrival log, a bucket of every fact in insertion order;
     - the fact table, an open-addressing table of log positions keyed
       by the fact (duplicate detection and point lookups: one probe
       per insert; the birth is read from the log);
     - its predicate's index, an array slot found by the predicate's
       interned id, which holds a bucket of the predicate's facts plus,
       per argument position, an open-addressing table from element id
       to the bucket of facts carrying that element there.

   A bucket keeps its facts and their births in parallel growable
   arrays, in arrival order, so every read is an index loop.  Both
   tables are flat arrays of ints and buckets: no entry is a heap block
   of its own, so filling a large instance allocates no per-fact or
   per-element cell for the minor collector to promote (DESIGN.md
   section 7a).

   Constants are interned: asking twice for constant "a" yields the same
   id, and the id remembers its name.  Labelled nulls carry provenance so
   the chase skeleton (Section 3.2 of the paper) can be read back.

   Facts carry a *birth round* (default 0) so the chase can evaluate
   semi-naively.  Reads are newest first, and as long as facts arrive
   with non-decreasing births (the chase adds round r facts during round
   r) each bucket's birth array is sorted, so a birth window [since,
   upto) is the index range between two binary searches — time
   proportional to the window, not the bucket.  If a caller ever
   violates the monotone order the instance notices and the windowed
   accessors fall back to a filtering scan of the bucket (correct, just
   slower). *)

open Bddfc_logic

(* An index bucket: facts and births in parallel arrays, arrival order,
   the first [b_size] slots live.  Arrays are only ever appended to or
   replaced wholesale (never compacted in place), so a reader that
   captured [b_facts] and [b_size] keeps a stable view while the caller
   adds facts from inside the iteration, as the chase does. *)
type bucket = {
  mutable b_facts : Fact.t array;
  mutable b_births : int array;
  mutable b_size : int;
}

let new_bucket () = { b_facts = [||]; b_births = [||]; b_size = 0 }

let bucket_push b f birth =
  let n = b.b_size in
  if n = Array.length b.b_facts then begin
    let cap = max 1 (2 * n) in
    let facts = Array.make cap f and births = Array.make cap 0 in
    Array.blit b.b_facts 0 facts 0 n;
    Array.blit b.b_births 0 births 0 n;
    b.b_facts <- facts;
    b.b_births <- births
  end;
  b.b_facts.(n) <- f;
  b.b_births.(n) <- birth;
  b.b_size <- n + 1

let bucket_copy b =
  {
    b_facts = Array.sub b.b_facts 0 b.b_size;
    b_births = Array.sub b.b_births 0 b.b_size;
    b_size = b.b_size;
  }

(* Keep the entries whose index satisfies [keep], in arrival order, in
   fresh arrays. *)
let bucket_filter b keep =
  let n = b.b_size in
  if n > 0 then begin
    let facts = Array.make n b.b_facts.(0) and births = Array.make n 0 in
    let k = ref 0 in
    for i = 0 to n - 1 do
      if keep i then begin
        facts.(!k) <- b.b_facts.(i);
        births.(!k) <- b.b_births.(i);
        incr k
      end
    done;
    b.b_facts <- facts;
    b.b_births <- births;
    b.b_size <- !k
  end

(* First index in the sorted prefix [0, n) of [a] with [a.(i) >= x]. *)
let lower_bound a n x =
  let lo = ref 0 and hi = ref n in
  while !lo < !hi do
    let mid = (!lo + !hi) / 2 in
    if a.(mid) >= x then hi := mid else lo := mid + 1
  done;
  !lo

(* The answer to every lookup that finds nothing, the free slot of an
   element table and the empty slot of [by_pred]: compared physically,
   read freely, never written. *)
let empty = new_bucket ()

(* Both tables below probe linearly over a power-of-two array, mark a
   free slot with -1, and stay at most half full.  A removal frees its
   slot and re-files the rest of the probe run, so no entry is ever
   separated from its home slot by a free one. *)

(* The smallest power of two >= [n] (and >= 2). *)
let table_size n =
  let rec up s = if s >= n then s else up (2 * s) in
  up 2

(* An element table: per (predicate, position), element id -> bucket, in
   two parallel arrays. *)
type etable = {
  mutable keys : int array; (* element id, -1 = free *)
  mutable vals : bucket array; (* [empty] where the key is free *)
  mutable count : int;
}

let etable_create () =
  { keys = Array.make 2 (-1); vals = Array.make 2 empty; count = 0 }

(* Ids are dense, so consecutive ids must not land in one run: a
   multiplicative hash spreads them over the table. *)
let ehome id mask = ((id * 0x1E3779B97F4A7C15) lsr 32) land mask

(* The probe loops are top-level functions, not local closures: a
   closure over the table would be allocated on every lookup. *)
let rec eprobe keys id mask i =
  let k = keys.(i) in
  if k = id || k < 0 then i else eprobe keys id mask ((i + 1) land mask)

(* The slot holding [id], or the free slot where it would go. *)
let eslot t id =
  let mask = Array.length t.keys - 1 in
  eprobe t.keys id mask (ehome id mask)

let efind t id =
  let i = eslot t id in
  if t.keys.(i) = id then t.vals.(i) else empty

(* Put [id] in the first free slot from its home. *)
let eplace t id b =
  let i = eslot t id in
  t.keys.(i) <- id;
  t.vals.(i) <- b

let egrow t =
  let keys = t.keys and vals = t.vals in
  let n = 2 * Array.length keys in
  t.keys <- Array.make n (-1);
  t.vals <- Array.make n empty;
  Array.iteri (fun i k -> if k >= 0 then eplace t k vals.(i)) keys

let eadd t id b =
  eplace t id b;
  t.count <- t.count + 1;
  if 2 * t.count > Array.length t.keys then egrow t

(* Free slot [i] and re-file the rest of its probe run. *)
let eremove t i =
  let mask = Array.length t.keys - 1 in
  t.keys.(i) <- -1;
  t.vals.(i) <- empty;
  t.count <- t.count - 1;
  let rec refile j =
    let k = t.keys.(j) in
    if k >= 0 then begin
      let b = t.vals.(j) in
      t.keys.(j) <- -1;
      t.vals.(j) <- empty;
      eplace t k b;
      refile ((j + 1) land mask)
    end
  in
  refile ((i + 1) land mask)

let etable_copy t =
  {
    keys = Array.copy t.keys;
    vals =
      Array.map (fun b -> if b == empty then empty else bucket_copy b) t.vals;
    count = t.count;
  }

(* One predicate's index: its facts, and per argument position the
   facts by element. *)
type pindex = { p_all : bucket; p_args : etable array }

let no_index = { p_all = empty; p_args = [||] }

type t = {
  mutable next_id : int;
  mutable infos : Element.info array; (* id -> info, grown on demand *)
  const_ids : (string, Element.id) Hashtbl.t;
  mutable slots : int array; (* the fact table: log positions, -1 = free *)
  log : bucket; (* every fact, arrival order *)
  mutable by_pred : pindex array; (* by Pred.id; [no_index] = no facts yet *)
  mutable preds : Pred.Set.t; (* predicates that ever had a bucket *)
  mutable max_fact_birth : int;
  mutable birth_monotone : bool; (* births non-decreasing in add order *)
}

let create ?(capacity = 32) () =
  {
    next_id = 0;
    infos = Array.make (max capacity 1) (Element.Const "");
    const_ids = Hashtbl.create 16;
    slots = Array.make (table_size (2 * capacity)) (-1);
    log = new_bucket ();
    by_pred = [||];
    preds = Pred.Set.empty;
    max_fact_birth = 0;
    birth_monotone = true;
  }

let ensure_capacity inst id =
  let n = Array.length inst.infos in
  if id >= n then begin
    let infos = Array.make (max (2 * n) (id + 1)) (Element.Const "") in
    Array.blit inst.infos 0 infos 0 n;
    inst.infos <- infos
  end

let alloc inst info =
  let id = inst.next_id in
  inst.next_id <- id + 1;
  ensure_capacity inst id;
  inst.infos.(id) <- info;
  id

let const inst name =
  match Hashtbl.find_opt inst.const_ids name with
  | Some id -> id
  | None ->
      let id = alloc inst (Element.Const name) in
      Hashtbl.replace inst.const_ids name id;
      id

let const_opt inst name = Hashtbl.find_opt inst.const_ids name

let fresh_null inst ~birth ~rule ~parent =
  alloc inst (Element.Null { birth; rule; parent })

let info inst id =
  if id < 0 || id >= inst.next_id then invalid_arg "Instance.info: bad id";
  inst.infos.(id)

let is_const inst id = Element.is_const (info inst id)
let is_null inst id = Element.is_null (info inst id)
let const_name inst id = Element.const_name (info inst id)
let parent inst id = Element.parent (info inst id)
let birth inst id = Element.birth (info inst id)

let num_elements inst = inst.next_id
let num_facts inst = inst.log.b_size

let elements inst = List.init inst.next_id (fun i -> i)

let constants inst =
  Hashtbl.fold (fun _ id acc -> id :: acc) inst.const_ids []

(* ------------------------------------------------------------------ *)
(* The fact table                                                     *)
(* ------------------------------------------------------------------ *)

let rec fprobe slots facts f mask i =
  let p = slots.(i) in
  if p < 0 || Fact.equal facts.(p) f then i
  else fprobe slots facts f mask ((i + 1) land mask)

(* The slot holding [f]'s log position, or the free slot where it would
   go. *)
let fact_slot inst f =
  let mask = Array.length inst.slots - 1 in
  fprobe inst.slots inst.log.b_facts f mask (Fact.hash f land mask)

let rec free_slot slots mask i =
  if slots.(i) < 0 then i else free_slot slots mask ((i + 1) land mask)

(* Put log position [p] in the first free slot from its home. *)
let place_fact inst p =
  let slots = inst.slots in
  let mask = Array.length slots - 1 in
  slots.(free_slot slots mask (Fact.hash inst.log.b_facts.(p) land mask)) <- p

(* Rebuild the fact table from the log, at [size] slots. *)
let refile_facts inst size =
  inst.slots <- Array.make size (-1);
  for p = 0 to inst.log.b_size - 1 do
    place_fact inst p
  done

(* Free slot [i] and re-file the rest of its probe run. *)
let free_fact_slot inst i =
  let slots = inst.slots in
  let mask = Array.length slots - 1 in
  slots.(i) <- -1;
  let rec refile j =
    let p = slots.(j) in
    if p >= 0 then begin
      slots.(j) <- -1;
      place_fact inst p;
      refile ((j + 1) land mask)
    end
  in
  refile ((i + 1) land mask)

(* ------------------------------------------------------------------ *)
(* Indexes                                                            *)
(* ------------------------------------------------------------------ *)

let pindex_opt inst p =
  let id = Pred.id p in
  if id < Array.length inst.by_pred then inst.by_pred.(id) else no_index

(* The predicate's index, created (and the predicate recorded in
   [preds]) on its first fact. *)
let pindex inst p =
  let pi = pindex_opt inst p in
  if pi != no_index then pi
  else begin
    let id = Pred.id p in
    let n = Array.length inst.by_pred in
    if id >= n then begin
      let grown = Array.make (max (2 * n) (id + 1)) no_index in
      Array.blit inst.by_pred 0 grown 0 n;
      inst.by_pred <- grown
    end;
    let pi =
      {
        p_all = new_bucket ();
        p_args = Array.init (Pred.arity p) (fun _ -> etable_create ());
      }
    in
    inst.by_pred.(id) <- pi;
    inst.preds <- Pred.Set.add p inst.preds;
    pi
  end

let pred_bucket inst p = (pindex_opt inst p).p_all

let arg_bucket inst p pos id =
  let pi = pindex_opt inst p in
  if pos < 0 || pos >= Array.length pi.p_args then empty
  else efind pi.p_args.(pos) id

(* File [f] in the arrival log and its predicate's buckets (the fact
   table is the caller's business). *)
let index inst f birth =
  bucket_push inst.log f birth;
  let pi = pindex inst (Fact.pred f) in
  bucket_push pi.p_all f birth;
  let args = Fact.args f in
  for pos = 0 to Array.length args - 1 do
    let t = pi.p_args.(pos) and id = args.(pos) in
    let i = eslot t id in
    if t.keys.(i) = id then bucket_push t.vals.(i) f birth
    else eadd t id { b_facts = [| f |]; b_births = [| birth |]; b_size = 1 }
  done

let note_birth inst birth =
  if birth < inst.max_fact_birth then inst.birth_monotone <- false
  else inst.max_fact_birth <- birth

let mem_fact inst f = inst.slots.(fact_slot inst f) >= 0

let add_fact ?(birth = 0) inst f =
  let i = fact_slot inst f in
  if inst.slots.(i) >= 0 then false
  else begin
    let args = Fact.args f in
    for k = 0 to Array.length args - 1 do
      if args.(k) < 0 || args.(k) >= inst.next_id then
        invalid_arg "Instance.add_fact: unknown element id"
    done;
    inst.slots.(i) <- inst.log.b_size;
    note_birth inst birth;
    index inst f birth;
    if 2 * inst.log.b_size > Array.length inst.slots then
      refile_facts inst (2 * Array.length inst.slots);
    true
  end

(* The arrival log, oldest first. *)
let facts inst =
  let b = inst.log in
  let acc = ref [] in
  for i = b.b_size - 1 downto 0 do
    acc := b.b_facts.(i) :: !acc
  done;
  !acc

let iter_facts fn inst =
  let b = inst.log in
  let facts = b.b_facts in
  for i = b.b_size - 1 downto 0 do
    fn facts.(i)
  done

(* Every bucket of the instance, the arrival log included. *)
let iter_buckets inst fn =
  fn inst.log;
  Array.iter
    (fun pi ->
      if pi != no_index then begin
        fn pi.p_all;
        Array.iter
          (fun t -> Array.iter (fun b -> if b != empty then fn b) t.vals)
          pi.p_args
      end)
    inst.by_pred

(* Batch removal, the retraction side of incremental maintenance.  Only
   the buckets a removed fact touches are filtered (preserving arrival
   order, hence birth monotonicity); an argument bucket left empty is
   dropped.  The log is compacted, so the fact table loses the removed
   entries and has its surviving positions renumbered in place, slot by
   slot, instead of being rebuilt.  Elements are never reclaimed — an
   orphaned id is harmless, and keeping ids stable is what lets callers
   hold facts across removals.  The instance's max birth is left as a
   (sound) upper bound. *)
let remove_facts inst fs =
  let log = inst.log in
  (* [renum.(p)] is -1 for a removed log position; a surviving one reads
     0 until the compaction stores its new position there *)
  let renum = Array.make log.b_size 0 in
  let dead =
    List.fold_left
      (fun dead f ->
        let p = inst.slots.(fact_slot inst f) in
        if p >= 0 && renum.(p) = 0 then begin
          renum.(p) <- -1;
          log.b_facts.(p) :: dead
        end
        else dead)
      [] fs
  in
  if dead = [] then 0
  else begin
    let alive f = renum.(inst.slots.(fact_slot inst f)) = 0 in
    let keep b i = alive b.b_facts.(i) in
    List.iter
      (fun pid ->
        let b = inst.by_pred.(pid).p_all in
        bucket_filter b (keep b))
      (List.sort_uniq Int.compare
         (List.map (fun f -> Pred.id (Fact.pred f)) dead));
    List.iter
      (fun (pid, pos, id) ->
        let t = inst.by_pred.(pid).p_args.(pos) in
        let i = eslot t id in
        let b = t.vals.(i) in
        bucket_filter b (keep b);
        if b.b_size = 0 then eremove t i)
      (List.sort_uniq compare
         (List.concat_map
            (fun f ->
              let pid = Pred.id (Fact.pred f) in
              List.mapi (fun pos id -> (pid, pos, id)) (Fact.elements f))
            dead));
    List.iter (fun f -> free_fact_slot inst (fact_slot inst f)) dead;
    let k = ref 0 in
    Array.iteri
      (fun p r ->
        if r = 0 then begin
          renum.(p) <- !k;
          incr k
        end)
      renum;
    Array.iteri
      (fun i p -> if p >= 0 then inst.slots.(i) <- renum.(p))
      inst.slots;
    bucket_filter log (fun p -> renum.(p) >= 0);
    List.length dead
  end

let fact_birth inst f =
  let p = inst.slots.(fact_slot inst f) in
  if p < 0 then 0 else inst.log.b_births.(p)

let max_fact_birth inst = inst.max_fact_birth

(* Every birth lives in the buckets (the log's answer [fact_birth]), so a
   reset zeroes them all. *)
let reset_fact_births inst =
  iter_buckets inst (fun b -> Array.fill b.b_births 0 b.b_size 0);
  inst.max_fact_birth <- 0;
  inst.birth_monotone <- true

(* ------------------------------------------------------------------ *)
(* Windowed reads                                                     *)
(* ------------------------------------------------------------------ *)

(* All windowed reads take [upto = max_int] as "no upper bound". *)
let upto_of = function None -> max_int | Some u -> u

(* Iterate a bucket's facts with birth in [since, upto), newest first.
   The arrays and the size are read once, up front: facts [fn] adds to
   this very bucket are not visited. *)
let iter_bucket inst b ~since ~upto fn =
  let facts = b.b_facts and births = b.b_births and n = b.b_size in
  if since <= 0 && upto > inst.max_fact_birth then
    for i = n - 1 downto 0 do
      fn facts.(i)
    done
  else if inst.birth_monotone then begin
    let lo = lower_bound births n since and hi = lower_bound births n upto in
    for i = hi - 1 downto lo do
      fn facts.(i)
    done
  end
  else
    for i = n - 1 downto 0 do
      let bi = births.(i) in
      if bi >= since && bi < upto then fn facts.(i)
    done

let list_bucket inst b ~since ~upto =
  let acc = ref [] in
  iter_bucket inst b ~since ~upto (fun f -> acc := f :: !acc);
  List.rev !acc

(* Exact windowed cardinality: two binary searches over the bucket's
   birth array.  When the monotone-birth invariant was broken the array
   is no longer sorted, so fall back to the whole-bucket size — an upper
   bound, which is all the join scorer needs. *)
let card_bucket inst b ~since ~upto =
  if since <= 0 && upto > inst.max_fact_birth then b.b_size
  else if not inst.birth_monotone then b.b_size
  else
    max 0
      (lower_bound b.b_births b.b_size upto
      - lower_bound b.b_births b.b_size since)

let facts_with_pred inst p =
  list_bucket inst (pred_bucket inst p) ~since:0 ~upto:max_int

let facts_with_arg inst p pos id =
  list_bucket inst (arg_bucket inst p pos id) ~since:0 ~upto:max_int

let card_with_pred inst p = (pred_bucket inst p).b_size
let card_with_arg inst p pos id = (arg_bucket inst p pos id).b_size

let card_with_pred_window inst p ~since ~upto =
  card_bucket inst (pred_bucket inst p) ~since ~upto

let card_with_arg_window inst p pos id ~since ~upto =
  card_bucket inst (arg_bucket inst p pos id) ~since ~upto

let facts_with_pred_window ?(since = 0) ?upto inst p =
  list_bucket inst (pred_bucket inst p) ~since ~upto:(upto_of upto)

let facts_with_arg_window ?(since = 0) ?upto inst p pos id =
  list_bucket inst (arg_bucket inst p pos id) ~since ~upto:(upto_of upto)

let iter_with_pred_window ?(since = 0) ?upto inst p fn =
  iter_bucket inst (pred_bucket inst p) ~since ~upto:(upto_of upto) fn

let iter_with_arg_window ?(since = 0) ?upto inst p pos id fn =
  iter_bucket inst (arg_bucket inst p pos id) ~since ~upto:(upto_of upto) fn

let preds inst = inst.preds

let signature inst =
  let consts =
    Hashtbl.fold (fun name _ acc -> name :: acc) inst.const_ids []
  in
  Signature.make ~preds:(Pred.Set.elements inst.preds) ~consts

(* -------------------------------------------------------------- *)
(* Conversions                                                    *)
(* -------------------------------------------------------------- *)

(* Add a ground atom; constants are interned by name.
   @raise Invalid_argument if the atom contains a variable. *)
let add_atom ?(birth = 0) inst atom =
  let ids =
    List.map
      (function
        | Term.Cst c -> const inst c
        | Term.Var x ->
            invalid_arg ("Instance.add_atom: variable " ^ x ^ " in fact"))
      (Atom.args atom)
  in
  add_fact ~birth inst (Fact.make (Atom.pred atom) (Array.of_list ids))

let of_atoms atoms =
  let inst = create () in
  List.iter (fun a -> ignore (add_atom inst a)) atoms;
  inst

(* Render a fact back as a ground atom.  Nulls get printable invented
   names ("_nK"). *)
let atom_of_fact inst f =
  let term_of id =
    match info inst id with
    | Element.Const c -> Term.Cst c
    | Element.Null _ -> Term.Cst ("_n" ^ string_of_int id)
  in
  Atom.make (Fact.pred f) (List.map term_of (Fact.elements f))

let to_atoms inst = List.map (atom_of_fact inst) (facts inst)

(* -------------------------------------------------------------- *)
(* Restriction and copying                                        *)
(* -------------------------------------------------------------- *)

(* A new instance with [inst]'s elements and constants, no facts yet and
   the given fact table. *)
let blank_like inst slots =
  let const_ids = Hashtbl.create 16 in
  Hashtbl.iter (fun k v -> Hashtbl.replace const_ids k v) inst.const_ids;
  {
    next_id = inst.next_id;
    infos = Array.copy inst.infos;
    const_ids;
    slots;
    log = new_bucket ();
    by_pred = [||];
    preds = Pred.Set.empty;
    max_fact_birth = 0;
    birth_monotone = true;
  }

(* Recompute the birth summary from the arrival log: exactly what adding
   the surviving facts one by one would have recorded. *)
let summarize_births c =
  let b = c.log in
  for i = 0 to b.b_size - 1 do
    note_birth c b.b_births.(i)
  done

(* Install [b]'s live facts, births and size as [c]'s arrival log. *)
let set_log c b =
  c.log.b_facts <- b.b_facts;
  c.log.b_births <- b.b_births;
  c.log.b_size <- b.b_size

let clone_pindex pi =
  { p_all = bucket_copy pi.p_all; p_args = Array.map etable_copy pi.p_args }

(* A structural copy of the facts of the predicates satisfying [keep],
   sharing nothing with the original.  Buckets and tables are cloned
   array by array, in arrival order, with their births, so the copy keeps
   the delta-window invariant of the original; the fact table is
   re-filed only when a predicate was dropped.  Predicates whose facts
   were all removed are not carried over, as if the copy had been built
   by re-adding the facts. *)
let copy_preds inst keep =
  let c = blank_like inst (Array.copy inst.slots) in
  c.by_pred <- Array.make (Array.length inst.by_pred) no_index;
  let dropped = ref false in
  Pred.Set.iter
    (fun p ->
      let pi = pindex_opt inst p in
      if pi.p_all.b_size > 0 then
        if keep p then begin
          c.by_pred.(Pred.id p) <- clone_pindex pi;
          c.preds <- Pred.Set.add p c.preds
        end
        else dropped := true)
    inst.preds;
  let log = bucket_copy inst.log in
  if !dropped then
    bucket_filter log (fun i ->
        c.by_pred.(Pred.id (Fact.pred log.b_facts.(i))) != no_index);
  set_log c log;
  if !dropped then refile_facts c (table_size (2 * log.b_size));
  summarize_births c;
  c

let copy inst = copy_preds inst (fun _ -> true)

(* C restricted to a predicate set (the paper's C |` Sigma).  Elements are
   kept (with their ids); only facts are filtered. *)
let restrict_preds inst keep = copy_preds inst (fun p -> Pred.Set.mem p keep)

(* C restricted to an element set (the paper's C |` A): facts whose
   arguments all lie in [keep], re-filed in arrival order with their
   births. *)
let restrict_elements inst keep =
  let kept = Array.make (max 1 inst.next_id) false in
  Element.Id_set.iter
    (fun id -> if id >= 0 && id < inst.next_id then kept.(id) <- true)
    keep;
  let c = blank_like inst [||] (* filed below *) in
  let b = inst.log in
  for i = 0 to b.b_size - 1 do
    let f = b.b_facts.(i) in
    if Array.for_all (fun id -> kept.(id)) (Fact.args f) then
      index c f b.b_births.(i)
  done;
  refile_facts c (table_size (2 * c.log.b_size));
  summarize_births c;
  c

(* Fact-set equality up to constant names.  Constants are matched by name;
   labelled nulls are matched by id, so for structures with nulls this is
   only meaningful when the two instances share an element table (e.g. a
   copy).  For isomorphism of small structures use Canonical. *)
let equal_facts inst1 inst2 =
  let key inst f =
    let render id =
      match const_name inst id with
      | Some c -> "c:" ^ c
      | None -> "n:" ^ string_of_int id
    in
    Pred.name (Fact.pred f)
    ^ "("
    ^ String.concat "," (List.map render (Fact.elements f))
    ^ ")"
  in
  let set inst =
    List.sort_uniq String.compare (List.map (key inst) (facts inst))
  in
  set inst1 = set inst2

let pp ppf inst =
  let pp_fact ppf f = Atom.pp ppf (atom_of_fact inst f) in
  Fmt.pf ppf "@[<v>%a@]" Fmt.(list ~sep:cut pp_fact) (facts inst)

let show = Fmt.to_to_string pp
