(* Conjunctive queries.  [answer] lists the free (answer) variables; every
   other variable occurring in [body] is existentially quantified.  A
   Boolean conjunctive query has [answer = []]. *)

module SS = Sset

type t = { answer : string list; body : Atom.t list } [@@deriving eq, ord]

let make ?(answer = []) body =
  let bound = Atom.vars_of_atoms body in
  List.iter
    (fun x ->
      if not (SS.mem x bound) then
        invalid_arg (Printf.sprintf "Cq.make: answer variable %s not in body" x))
    answer;
  { answer; body }

let boolean body = { answer = []; body }
let answer q = q.answer
let body q = q.body
let is_boolean q = q.answer = []

let all_vars q = Atom.vars_of_atoms q.body
let existential_vars q = SS.diff (all_vars q) (SS.of_list q.answer)
let consts q = Atom.consts_of_atoms q.body
let num_vars q = SS.cardinal (all_vars q)
let num_atoms q = List.length q.body

let apply_subst s q =
  (* Answer variables must be mapped to variables (or stay put); used when
     normalizing.  Bindings sending an answer variable to a constant keep
     the query well-formed by dropping that variable from [answer]. *)
  let body = Subst.apply_atoms s q.body in
  let keep x =
    match Subst.find_opt x s with
    | None -> Some x
    | Some (Term.Var y) -> Some y
    | Some (Term.Cst _) -> None
  in
  let answer = List.filter_map keep q.answer in
  let bound = Atom.vars_of_atoms body in
  { answer = List.filter (fun x -> SS.mem x bound) answer; body }

(* Rename all variables of [q] with globally fresh names.  Answer variables
   are renamed consistently; the renaming is returned alongside. *)
let rename_apart q =
  let vars = SS.elements (all_vars q) in
  let ren =
    Subst.of_bindings
      (List.map (fun x -> (x, Term.Var (Term.fresh_var ()))) vars)
  in
  (apply_subst ren q, ren)

let frozen_name x = "_frz_" ^ x

(* The canonical ("frozen") instance of a query: each variable becomes a
   fresh constant.  Useful for containment checks. *)
let freeze q =
  let vars = SS.elements (all_vars q) in
  let frz =
    Subst.of_bindings
      (List.map (fun x -> (x, Term.Cst (frozen_name x))) vars)
  in
  (Subst.apply_atoms frz q.body, frz)

(* The Gaifman-like graph of a query over a binary signature, as in
   Section 4 of the paper: vertices are variables, and each binary atom
   with two variable arguments is a directed labeled edge.  Atoms with a
   constant argument act as unary information and induce no edge. *)
let edges q =
  List.filter_map
    (fun a ->
      match Atom.args a with
      | [ Term.Var x; Term.Var y ] -> Some (x, Atom.pred a, y)
      | _ -> None)
    q.body

(* Connected components of the undirected variable graph. *)
let connected_components q =
  let vars = SS.elements (all_vars q) in
  let adj = Hashtbl.create 16 in
  let link x y =
    Hashtbl.replace adj x (y :: (Option.value ~default:[] (Hashtbl.find_opt adj x)))
  in
  List.iter
    (fun a ->
      match Atom.vars a with
      | [] | [ _ ] -> ()
      | vs ->
          List.iter
            (fun x -> List.iter (fun y -> if x <> y then link x y) vs)
            vs)
    q.body;
  let seen = Hashtbl.create 16 in
  let component root =
    let rec go acc = function
      | [] -> acc
      | x :: rest ->
          if Hashtbl.mem seen x then go acc rest
          else begin
            Hashtbl.replace seen x ();
            let nbrs = Option.value ~default:[] (Hashtbl.find_opt adj x) in
            go (SS.add x acc) (nbrs @ rest)
          end
    in
    go SS.empty [ root ]
  in
  List.filter_map
    (fun x -> if Hashtbl.mem seen x then None else Some (component x))
    vars

let pp ppf q =
  let pp_body = Fmt.(list ~sep:(any ", ") Atom.pp) in
  match q.answer with
  | [] -> Fmt.pf ppf "? %a" pp_body q.body
  | ans ->
      Fmt.pf ppf "?(%a) %a" Fmt.(list ~sep:(any ",") string) ans pp_body q.body

let show = Fmt.to_to_string pp
