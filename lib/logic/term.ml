(* First-order terms of the rule language: variables and constants only
   (the language of TGDs has no function symbols). *)

type t =
  | Var of string
  | Cst of string
[@@deriving eq, ord]

let var x = Var x
let cst c = Cst c

let is_var = function Var _ -> true | Cst _ -> false
let is_cst = function Cst _ -> true | Var _ -> false

let as_var = function Var x -> Some x | Cst _ -> None
let as_cst = function Cst c -> Some c | Var _ -> None

let pp ppf = function
  | Var x -> Fmt.string ppf x
  | Cst c -> Fmt.string ppf c

let show = Fmt.to_to_string pp

(* Fresh-variable supply, marked as every invented symbol is
   ([Pred.mark]): parsed variables may start with '_' too. *)
let fresh_counter = ref 0

let fresh_var ?(prefix = "_X") () =
  incr fresh_counter;
  Pred.mark (prefix ^ string_of_int !fresh_counter)

let reset_fresh_counter () = fresh_counter := 0

module Ord = struct
  type nonrec t = t

  let compare = compare
end

module Set = Set.Make (Ord)
module Map = Map.Make (Ord)
