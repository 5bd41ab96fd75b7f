(* Ground facts over element ids. *)

open Bddfc_logic

type t = { pred : Pred.t; args : Element.id array }

let make pred args =
  if Array.length args <> Pred.arity pred then
    invalid_arg "Fact.make: arity mismatch";
  { pred; args }

let pred f = f.pred
let args f = f.args
let arity f = Pred.arity f.pred

let rec args_equal a1 a2 i n =
  i >= n || (a1.(i) = a2.(i) && args_equal a1 a2 (i + 1) n)

let equal f1 f2 =
  Pred.equal f1.pred f2.pred
  && Array.length f1.args = Array.length f2.args
  && args_equal f1.args f2.args 0 (Array.length f1.args)

let compare f1 f2 =
  let c = Pred.compare f1.pred f2.pred in
  if c <> 0 then c else Stdlib.compare f1.args f2.args

(* [Hashtbl.hash] stops after 10 "meaningful" nodes, so hashing the raw
   args array would ignore every argument past the first few and collapse
   higher-arity fact tables into collision chains.  Fold over the full
   array instead, seeded with the predicate's interned id: no string is
   hashed and nothing is allocated.  The fold is linear in the ids, so
   chase-shaped facts such as e(x, x+1) land a fixed stride apart;
   [Hashtbl.hash] of the folded int (a non-allocating mixer) spreads them
   over the low bits the table indexes by. *)
let hash f =
  let args = f.args in
  let h = ref (Pred.hash f.pred) in
  for i = 0 to Array.length args - 1 do
    h := ((!h * 31) + args.(i) + 1) land max_int
  done;
  Hashtbl.hash !h

let elements f = Array.to_list f.args

let pp ppf f =
  Fmt.pf ppf "%s(%a)" (Pred.name f.pred)
    Fmt.(array ~sep:(any ",") int)
    f.args

let show = Fmt.to_to_string pp

module Ord = struct
  type nonrec t = t

  let compare = compare
end

module Set = Set.Make (Ord)

module Hashed = struct
  type nonrec t = t

  let equal = equal
  let hash = hash
end

module Table = Hashtbl.Make (Hashed)
