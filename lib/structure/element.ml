(* Elements of a finite structure.  Constants are named; labelled nulls
   carry provenance: the chase round of their birth, the rule that created
   them, and the frontier element they were created for (their "parent" in
   the skeleton forest of Section 3.2). *)

type id = int

type info =
  | Const of string
  | Null of { birth : int; rule : string; parent : id option }

let is_const = function Const _ -> true | Null _ -> false
let is_null = function Null _ -> true | Const _ -> false
let const_name = function Const c -> Some c | Null _ -> None
let parent = function Null n -> n.parent | Const _ -> None
let birth = function Null n -> n.birth | Const _ -> 0

module Id_set = Set.Make (Int)
module Id_map = Map.Make (Int)
