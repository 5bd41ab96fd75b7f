(* Relational signatures: a finite set of predicate symbols plus a finite
   set of constants.  Following the paper we treat constants as part of the
   signature (Section 3.2 extends a signature with a name for every element
   of the instance). *)

type t = { preds : Pred.Set.t; consts : Sset.t }

let empty = { preds = Pred.Set.empty; consts = Sset.empty }
let make ~preds ~consts = { preds = Pred.Set.of_list preds; consts = Sset.of_list consts }
let preds s = Pred.Set.elements s.preds
let pred_set s = s.preds
let consts s = Sset.elements s.consts
let add_pred p s = { s with preds = Pred.Set.add p s.preds }
let add_const c s = { s with consts = Sset.add c s.consts }

let union s1 s2 =
  { preds = Pred.Set.union s1.preds s2.preds;
    consts = Sset.union s1.consts s2.consts;
  }

let max_arity s =
  Pred.Set.fold (fun p m -> max (Pred.arity p) m) s.preds 0

let is_binary s = max_arity s <= 2

let of_atoms atoms =
  List.fold_left
    (fun sg a ->
      let sg = add_pred (Atom.pred a) sg in
      List.fold_left (fun sg c -> add_const c sg) sg (Atom.consts a))
    empty atoms

let of_rules rules =
  List.fold_left
    (fun sg r -> union sg (of_atoms (Rule.body r @ Rule.head r)))
    empty rules

let pp ppf s =
  Fmt.pf ppf "@[<v>preds: %a@,consts: %a@]"
    Fmt.(list ~sep:(any ", ") Pred.pp)
    (preds s)
    Fmt.(list ~sep:(any ", ") string)
    (consts s)

let show = Fmt.to_to_string pp
