(* Theories: finite sets of existential TGDs and plain datalog rules
   (Section 1.1 of the paper). *)

type t = { rules : Rule.t list }

let make rules = { rules }
let rules t = t.rules
let empty = { rules = [] }
let add_rule r t = { rules = t.rules @ [ r ] }
let append t1 t2 = { rules = t1.rules @ t2.rules }
let size t = List.length t.rules
let signature t = Signature.of_rules t.rules

let is_binary t = Signature.is_binary (signature t)
let all_single_head t = List.for_all Rule.is_single_head t.rules

(* Tuple generating predicates (♠5 in the paper): predicates occurring in
   the head of some existential TGD.  The ♠5 discipline additionally
   requires that TGPs never occur in datalog heads; [tgp_pure] checks it. *)
let tgps t =
  List.fold_left
    (fun acc r ->
      if Rule.is_existential r then Pred.Set.union acc (Rule.head_preds r)
      else acc)
    Pred.Set.empty t.rules

let datalog_head_preds t =
  List.fold_left
    (fun acc r ->
      if Rule.is_datalog r then Pred.Set.union acc (Rule.head_preds r)
      else acc)
    Pred.Set.empty t.rules

let tgp_pure t =
  Pred.Set.is_empty (Pred.Set.inter (tgps t) (datalog_head_preds t))

(* ♠5 additionally requires every existential head to be of the form
   [exists z. R(y, z)]: binary, witness in the second position, single
   frontier variable first. *)
let heads_normalized t =
  List.for_all
    (fun r ->
      if Rule.is_datalog r then true
      else
        match Rule.head r with
        | [ a ] -> (
            match Atom.args a with
            | [ Term.Var y; Term.Var z ] ->
                Rule.SS.mem y (Rule.body_vars r)
                && not (Rule.SS.mem z (Rule.body_vars r))
            | _ -> false)
        | _ -> false)
    t.rules

let is_normalized t = tgp_pure t && heads_normalized t

let max_body_vars t =
  List.fold_left
    (fun m r -> max m (Rule.SS.cardinal (Rule.body_vars r)))
    0 t.rules

let pp ppf t =
  Fmt.pf ppf "@[<v>%a@]" Fmt.(list ~sep:cut Rule.pp) t.rules

let show = Fmt.to_to_string pp
