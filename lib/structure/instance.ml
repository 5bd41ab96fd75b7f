(* Finite relational structures ("database instances") over element ids.

   The store is mutable and dense.  Every fact is filed in:
     - one fact table mapping the fact to its birth round (duplicate
       detection and point lookups: one probe per insert);
     - the arrival log, a bucket of every fact in insertion order;
     - its predicate's index, an array slot found by the predicate's
       interned id, which holds a bucket of the predicate's facts plus,
       per argument position, a table from element id to the bucket of
       facts carrying that element there.

   A bucket keeps its facts and their births in parallel growable
   arrays, in arrival order, so every read is an index loop and no read
   goes back to the fact table for a birth (DESIGN.md section 7a).

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

(* Keep the facts satisfying [keep], in arrival order, in fresh arrays. *)
let bucket_filter b keep =
  let n = b.b_size in
  if n > 0 then begin
    let facts = Array.make n b.b_facts.(0) and births = Array.make n 0 in
    let k = ref 0 in
    for i = 0 to n - 1 do
      let f = b.b_facts.(i) in
      if keep f then begin
        facts.(!k) <- f;
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

(* Element-id keyed tables: ids are dense, so the identity is a perfect
   hash. *)
module Itbl = Hashtbl.Make (struct
  type t = int

  let equal = Int.equal
  let hash x = x land max_int
end)

(* One predicate's index: its facts, and per argument position the
   facts by element. *)
type pindex = { p_all : bucket; p_args : bucket Itbl.t array }

(* The answer to every lookup that finds nothing, and the empty slot of
   [by_pred]: compared physically, read freely, never written. *)
let empty = new_bucket ()
let no_index = { p_all = empty; p_args = [||] }

(* Every instance carries a process-unique creation token plus a mutation
   counter: together they give memo layers (Bddfc_hom.Hc) a sound cache
   key for "this exact structure in this exact state" without hashing the
   fact set.  The token supply is atomic so instances created on
   different domains (a library user may run several) can never
   alias. *)
let token_supply = Atomic.make 0

type t = {
  token : int; (* process-unique creation stamp *)
  mutable version : int; (* bumped on every element/fact mutation *)
  mutable next_id : int;
  mutable infos : Element.info array; (* id -> info, grown on demand *)
  const_ids : (string, Element.id) Hashtbl.t;
  births : int Fact.Table.t; (* every fact -> its birth *)
  log : bucket; (* every fact, arrival order *)
  mutable by_pred : pindex array; (* by Pred.id; [no_index] = no facts yet *)
  mutable preds : Pred.Set.t; (* predicates that ever had a bucket *)
  mutable max_fact_birth : int;
  mutable birth_monotone : bool; (* births non-decreasing in add order *)
}

let create_with ~capacity ~births () =
  {
    token = Atomic.fetch_and_add token_supply 1;
    version = 0;
    next_id = 0;
    infos = Array.make (max capacity 1) (Element.Const "");
    const_ids = Hashtbl.create 16;
    births;
    log = new_bucket ();
    by_pred = [||];
    preds = Pred.Set.empty;
    max_fact_birth = 0;
    birth_monotone = true;
  }

let create ?(capacity = 64) () =
  create_with ~capacity ~births:(Fact.Table.create capacity) ()

let ensure_capacity inst id =
  let n = Array.length inst.infos in
  if id >= n then begin
    let infos = Array.make (max (2 * n) (id + 1)) (Element.Const "") in
    Array.blit inst.infos 0 infos 0 n;
    inst.infos <- infos
  end

let token inst = inst.token
let version inst = inst.version

let alloc inst info =
  let id = inst.next_id in
  inst.version <- inst.version + 1;
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
        p_args = Array.init (Pred.arity p) (fun _ -> Itbl.create 1);
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
  else
    match Itbl.find pi.p_args.(pos) id with
    | b -> b
    | exception Not_found -> empty

(* File [f] in the arrival log and its predicate's buckets (the fact
   table is the caller's business). *)
let index inst f birth =
  bucket_push inst.log f birth;
  let pi = pindex inst (Fact.pred f) in
  bucket_push pi.p_all f birth;
  let args = Fact.args f in
  for pos = 0 to Array.length args - 1 do
    let tbl = pi.p_args.(pos) and id = args.(pos) in
    match Itbl.find tbl id with
    | b -> bucket_push b f birth
    | exception Not_found ->
        let b = new_bucket () in
        bucket_push b f birth;
        Itbl.add tbl id b
  done

let note_birth inst birth =
  if birth < inst.max_fact_birth then inst.birth_monotone <- false
  else inst.max_fact_birth <- birth

let mem_fact inst f = Fact.Table.mem inst.births f

let add_fact ?(birth = 0) inst f =
  if Fact.Table.mem inst.births f then false
  else begin
    let args = Fact.args f in
    for i = 0 to Array.length args - 1 do
      if args.(i) < 0 || args.(i) >= inst.next_id then
        invalid_arg "Instance.add_fact: unknown element id"
    done;
    Fact.Table.add inst.births f birth;
    inst.version <- inst.version + 1;
    note_birth inst birth;
    index inst f birth;
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
        Array.iter (Itbl.iter (fun _ b -> fn b)) pi.p_args
      end)
    inst.by_pred

(* Batch removal, the retraction side of incremental maintenance.  Only
   the buckets a removed fact touches are filtered (preserving arrival
   order, hence birth monotonicity); an argument bucket left empty is
   dropped.  Elements are never reclaimed — an orphaned id is harmless,
   and keeping ids stable is what lets callers hold facts across
   removals.  The instance's max birth is left as a (sound) upper
   bound. *)
let remove_facts inst fs =
  let dead = Fact.Table.create 16 in
  List.iter
    (fun f -> if Fact.Table.mem inst.births f then Fact.Table.replace dead f ())
    fs;
  let removed = Fact.Table.length dead in
  if removed = 0 then 0
  else begin
    inst.version <- inst.version + 1;
    let alive f = not (Fact.Table.mem dead f) in
    (* collect the touched buckets (by key) before filtering anything *)
    let touched_preds = Itbl.create 8 and touched_args = Hashtbl.create 16 in
    Fact.Table.iter
      (fun f () ->
        let pid = Pred.id (Fact.pred f) in
        Itbl.replace touched_preds pid ();
        Array.iteri
          (fun pos id -> Hashtbl.replace touched_args (pid, pos, id) ())
          (Fact.args f))
      dead;
    bucket_filter inst.log alive;
    Itbl.iter
      (fun pid () -> bucket_filter inst.by_pred.(pid).p_all alive)
      touched_preds;
    Hashtbl.iter
      (fun (pid, pos, id) () ->
        let tbl = inst.by_pred.(pid).p_args.(pos) in
        let b = Itbl.find tbl id in
        bucket_filter b alive;
        if b.b_size = 0 then Itbl.remove tbl id)
      touched_args;
    Fact.Table.iter (fun f () -> Fact.Table.remove inst.births f) dead;
    removed
  end

let fact_birth inst f =
  match Fact.Table.find inst.births f with
  | b -> b
  | exception Not_found -> 0

let max_fact_birth inst = inst.max_fact_birth

(* The fact table and the buckets both carry births; a reset zeroes
   both, so the windowed reads (which only look at the buckets) agree
   with [fact_birth]. *)
let reset_fact_births inst =
  Fact.Table.filter_map_inplace (fun _ _ -> Some 0) inst.births;
  iter_buckets inst (fun b -> Array.fill b.b_births 0 b.b_size 0);
  inst.version <- inst.version + 1;
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

(* A new instance with [inst]'s elements and constants and the given
   fact table; its facts are filed by the caller. *)
let blank_like inst births =
  let c = create_with ~capacity:(max 64 inst.next_id) ~births () in
  c.next_id <- inst.next_id;
  c.infos <- Array.copy inst.infos;
  ensure_capacity c (max 0 (inst.next_id - 1));
  Hashtbl.iter (fun k v -> Hashtbl.replace c.const_ids k v) inst.const_ids;
  c

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
  let clone tbl =
    let tbl = Itbl.copy tbl in
    Itbl.filter_map_inplace (fun _ b -> Some (bucket_copy b)) tbl;
    tbl
  in
  { p_all = bucket_copy pi.p_all; p_args = Array.map clone pi.p_args }

(* A structural copy of the facts of the predicates satisfying [keep],
   sharing nothing with the original.  Buckets are cloned array by
   array, in arrival order, with their births, so the copy keeps the
   delta-window invariant of the original; no fact is hashed again.
   Predicates whose facts were all removed are not carried over, as if
   the copy had been built by re-adding the facts. *)
let copy_preds inst keep =
  let births = Fact.Table.copy inst.births in
  let c = blank_like inst births in
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
  if !dropped then begin
    let kept f = c.by_pred.(Pred.id (Fact.pred f)) != no_index in
    Fact.Table.filter_map_inplace
      (fun f b -> if kept f then Some b else None)
      births;
    bucket_filter log kept
  end;
  set_log c log;
  summarize_births c;
  c

let copy inst = copy_preds inst (fun _ -> true)

(* C restricted to a predicate set (the paper's C |` Sigma).  Elements are
   kept (with their ids); only facts are filtered. *)
let restrict_preds inst keep = copy_preds inst (fun p -> Pred.Set.mem p keep)

(* C restricted to an element set (the paper's C |` A): facts whose
   arguments all lie in [keep], re-filed in arrival order with their
   births (the fact table is filtered, not re-hashed). *)
let restrict_elements inst keep =
  let kept = Array.make (max 1 inst.next_id) false in
  Element.Id_set.iter
    (fun id -> if id >= 0 && id < inst.next_id then kept.(id) <- true)
    keep;
  let keep f = Array.for_all (fun id -> kept.(id)) (Fact.args f) in
  let births = Fact.Table.copy inst.births in
  Fact.Table.filter_map_inplace
    (fun f b -> if keep f then Some b else None)
    births;
  let c = blank_like inst births in
  let b = inst.log in
  for i = 0 to b.b_size - 1 do
    let f = b.b_facts.(i) in
    if keep f then index c f b.b_births.(i)
  done;
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
