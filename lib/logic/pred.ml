(* Predicate symbols: a name paired with an arity.  Two predicates are the
   same symbol iff both coincide; [p/1] and [p/2] are distinct symbols.

   Every symbol is interned on creation: [make] hands out one shared
   record per (name, arity), stamped with a dense process-wide id, so
   equality and hashing are an integer comparison and the fact store can
   index its per-predicate buckets by id.  The order is still by (name,
   arity), so sets, maps and every printed listing are independent of
   the order in which symbols were first interned.  The id field comes
   last: polymorphic comparison of records holding predicates therefore
   orders them by (name, arity) too. *)

type t = { name : string; arity : int; id : int }

(* The intern table is process-wide.  Nothing in the program runs more
   than one domain, but a library user may, so the table is only touched
   under one mutex.  Each domain reads through its own cache first, so
   the common case (a symbol seen before) takes no lock; parsing interns
   every atom it reads. *)
module Key = struct
  type t = string * int

  let equal (n1, a1) (n2, a2) = a1 = a2 && String.equal n1 n2
  (* names are short; an inline fold beats a call into [Hashtbl.hash] *)
  let hash (n, a) =
    let h = ref a in
    for i = 0 to String.length n - 1 do
      h := (!h * 31) + Char.code (String.unsafe_get n i)
    done;
    !h land max_int
end

module Tbl = Hashtbl.Make (Key)

let table : t Tbl.t = Tbl.create 64
let lock = Mutex.create ()
let local = Domain.DLS.new_key (fun () -> Tbl.create 64)

let make name arity =
  if arity < 0 then invalid_arg "Pred.make: negative arity";
  let key = (name, arity) in
  let cache = Domain.DLS.get local in
  match Tbl.find cache key with
  | p -> p
  | exception Not_found ->
      Mutex.lock lock;
      let p =
        match Tbl.find table key with
        | p -> p
        | exception Not_found ->
            let p = { name; arity; id = Tbl.length table } in
            Tbl.add table key p;
            p
      in
      Mutex.unlock lock;
      Tbl.add cache key p;
      p

let name p = p.name
let arity p = p.arity
let id p = p.id
let is_unary p = p.arity = 1
let is_binary p = p.arity = 2
let equal p1 p2 = p1.id = p2.id
let hash p = p.id

let compare p1 p2 =
  if p1.id = p2.id then 0
  else
    let c = String.compare p1.name p2.name in
    if c <> 0 then c else Int.compare p1.arity p2.arity

let pp ppf p = Fmt.pf ppf "%s/%d" p.name p.arity
let show = Fmt.to_to_string pp

module Ord = struct
  type nonrec t = t

  let compare = compare
end

module Set = Set.Make (Ord)
module Map = Map.Make (Ord)
