(* Rules: existential TGDs and plain datalog rules, in one type.  A rule is
   [body -> exists Z. head] where [Z] is exactly the set of head variables
   not occurring in the body.  A rule with no existential variables is a
   plain datalog rule. *)

module SS = Sset

type t = {
  name : string;
  body : Atom.t list;
  head : Atom.t list;
  loc : Loc.t; [@equal fun _ _ -> true] [@compare fun _ _ -> 0]
      (* where the rule was parsed; never part of structural equality *)
  declared_ex : SS.t option;
      [@equal fun _ _ -> true] [@compare fun _ _ -> 0]
      (* the surface-syntax [exists Z1,...,Zk.] list, when one was
         written; [None] for rules without an exists clause.  The actual
         existential variables are always [existential_vars]; the
         declaration is kept only so the analyzer can diagnose
         declaration/use mismatches. *)
}
[@@deriving eq, ord]

let make ~name ?(loc = Loc.none) ?declared_ex ~body ~head () =
  if body = [] then invalid_arg "Rule.make: empty body";
  if head = [] then invalid_arg "Rule.make: empty head";
  { name; body; head; loc; declared_ex }

let name r = r.name
let body r = r.body
let head r = r.head
let loc r = r.loc
let declared_existentials r = r.declared_ex

let body_vars r = Atom.vars_of_atoms r.body
let head_vars r = Atom.vars_of_atoms r.head
let existential_vars r = SS.diff (head_vars r) (body_vars r)
let frontier r = SS.inter (head_vars r) (body_vars r)
let is_datalog r = SS.is_empty (existential_vars r)
let is_existential r = not (is_datalog r)
let is_single_head r = match r.head with [ _ ] -> true | _ -> false

(* Frontier-one rules (Theorem 3 class): at most one body variable is
   shared with the head. *)
let is_frontier_one r = SS.cardinal (frontier r) <= 1

let preds r =
  List.fold_left
    (fun acc a -> Pred.Set.add (Atom.pred a) acc)
    Pred.Set.empty (r.body @ r.head)

let body_preds r =
  List.fold_left
    (fun acc a -> Pred.Set.add (Atom.pred a) acc)
    Pred.Set.empty r.body

let head_preds r =
  List.fold_left
    (fun acc a -> Pred.Set.add (Atom.pred a) acc)
    Pred.Set.empty r.head

let consts r = Atom.consts_of_atoms (r.body @ r.head)

(* Rename all variables of the rule with globally fresh ones. *)
let rename_apart r =
  let vars = SS.elements (SS.union (body_vars r) (head_vars r)) in
  let ren =
    Subst.of_bindings
      (List.map (fun x -> (x, Term.Var (Term.fresh_var ()))) vars)
  in
  let ren_var x =
    match Subst.find_opt x ren with Some (Term.Var y) -> y | _ -> x
  in
  { r with
    body = Subst.apply_atoms ren r.body;
    head = Subst.apply_atoms ren r.head;
    declared_ex = Option.map (SS.map ren_var) r.declared_ex;
  }

let body_query r = Cq.make ~answer:(SS.elements (frontier r)) r.body

let pp ppf r =
  let pp_atoms = Fmt.(list ~sep:(any ", ") Atom.pp) in
  let ex = SS.elements (existential_vars r) in
  if ex = [] then Fmt.pf ppf "%a -> %a" pp_atoms r.body pp_atoms r.head
  else
    Fmt.pf ppf "%a -> exists %a. %a" pp_atoms r.body
      Fmt.(list ~sep:(any ",") string)
      ex pp_atoms r.head

let show = Fmt.to_to_string pp
