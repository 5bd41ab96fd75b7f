(* Syntactic unification for function-free terms and atoms.  Because there
   are no function symbols the algorithm is a simple union-find-less loop:
   a most general unifier is built by eagerly resolving variables. *)

let rec unify_terms s t1 t2 =
  let t1 = Subst.resolve_term s t1 and t2 = Subst.resolve_term s t2 in
  match (t1, t2) with
  | Term.Cst c1, Term.Cst c2 -> if String.equal c1 c2 then Some s else None
  | Term.Var x, Term.Var y when String.equal x y -> Some s
  | Term.Var x, t | t, Term.Var x -> Some (Subst.add x t s)

and unify_term_lists s l1 l2 =
  match (l1, l2) with
  | [], [] -> Some s
  | t1 :: r1, t2 :: r2 -> (
      match unify_terms s t1 t2 with
      | None -> None
      | Some s' -> unify_term_lists s' r1 r2)
  | _ -> None

let terms t1 t2 = unify_terms Subst.empty t1 t2

let atoms ?(init = Subst.empty) a1 a2 =
  if not (Pred.equal (Atom.pred a1) (Atom.pred a2)) then None
  else unify_term_lists init (Atom.args a1) (Atom.args a2)

(* Flatten a triangular substitution so that every binding is fully
   resolved; the result can be applied with [Subst.apply_*] in one step. *)
let solved s =
  Subst.of_bindings
    (List.map (fun (x, _) -> (x, Subst.resolve_term s (Term.Var x)))
       (Subst.bindings s))

let mgu_atoms a1 a2 = Option.map solved (atoms a1 a2)

(* Match [pattern] against [target]: a one-way unification where only
   variables of [pattern] may be bound.  [target] need not be ground. *)
let match_atom ~pattern ~target =
  let init = Subst.empty in
  let rec go s pargs targs =
    match (pargs, targs) with
    | [], [] -> Some s
    | p :: pr, t :: tr -> (
        match p with
        | Term.Cst _ -> if Term.equal p t then go s pr tr else None
        | Term.Var x -> (
            match Subst.find_opt x s with
            | Some bound -> if Term.equal bound t then go s pr tr else None
            | None -> go (Subst.add x t s) pr tr))
    | _ -> None
  in
  if not (Pred.equal (Atom.pred pattern) (Atom.pred target)) then None
  else go init (Atom.args pattern) (Atom.args target)
