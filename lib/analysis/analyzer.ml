(* The static-analysis pass over parsed theories.

   One engine produces every located, witness-carrying diagnostic:

     - program hygiene (errors / warnings): arity inconsistencies,
       unsafe (implicitly existential) head variables, existential
       declaration mismatches, singleton variables, undefined / unused
       predicates, query atoms unreachable from the database;

     - class membership (infos): for each syntactic class of the paper
       (binary, single-head, linear, guarded, sticky, frontier-one,
       weakly / jointly acyclic, ♠5-normalized) a refutation witness —
       the offender atom, the special-edge cycle of the position graph,
       the sticky-marking trace — never a bare boolean.

   [Recognize.report] in lib/classes is rebased on these diagnostics, and
   the weak/joint-acyclicity witnesses drive the pipeline's termination
   pre-flight: their absence proves the chase terminates, which upgrades
   budget-truncated Unknown verdicts to definite answers. *)

open Bddfc_logic
module T = Bddfc_chase.Termination
module D = Diagnostic
module SS = Sset

module Codes = struct
  let arity_mismatch = "arity-mismatch"
  let unsafe_head_var = "unsafe-head-var"
  let exvar_in_body = "exvar-in-body"
  let exvar_unused = "exvar-unused"
  let singleton_var = "singleton-var"
  let undefined_pred = "undefined-pred"
  let unused_pred = "unused-pred"
  let query_unreachable = "query-unreachable"
  let multi_head = "multi-head"
  let not_normalized = "not-normalized"
  let non_binary = "non-binary"
  let non_guarded = "non-guarded"
  let non_linear = "non-linear"
  let non_frontier_one = "non-frontier-one"
  let wa_cycle = "wa-cycle"
  let ja_cycle = "ja-cycle"
  let not_sticky = "not-sticky"
  let unreachable_predicate = "unreachable-predicate"
  let dead_rule = "dead-rule"
  let unsatisfiable_body = "unsatisfiable-body"

  let all =
    [ arity_mismatch; unsafe_head_var; exvar_in_body; exvar_unused;
      singleton_var; undefined_pred; unused_pred; query_unreachable;
      multi_head; not_normalized; non_binary; non_guarded; non_linear;
      non_frontier_one; wa_cycle; ja_cycle; not_sticky;
      unreachable_predicate; dead_rule; unsatisfiable_body ]
end

type input = {
  rules : Rule.t list;
  facts : Atom.t list;
  queries : Cq.t list;
  edb_known : bool;
      (* whether [facts]/[queries] are the complete program: the
         EDB-dependent checks (undefined / unused / unreachable
         predicates) only make sense when they are *)
}

let of_program (p : Parser.program) =
  { rules = p.rules; facts = p.facts; queries = p.queries; edb_known = true }

(* Rules only ([edb_known = false]): hygiene and class checks. *)
let of_theory theory =
  { rules = Theory.rules theory; facts = []; queries = []; edb_known = false }

let pp_atoms = Fmt.(list ~sep:(any ", ") Atom.pp)
let pp_vars ppf vs = Fmt.(list ~sep:(any ",") string) ppf (SS.elements vs)

(* The first atom of [atoms] mentioning variable [x], for witness locs. *)
let atom_with_var x atoms =
  List.find_opt (fun a -> List.mem x (Atom.vars a)) atoms

let loc_of_var x atoms fallback =
  match atom_with_var x atoms with Some a -> Atom.loc a | None -> fallback

(* ------------------------------------------------------------------ *)
(* Arity consistency                                                  *)
(* ------------------------------------------------------------------ *)

(* The core distinguishes predicates by (name, arity), so [p(a)] and
   [p(a,b)] silently coexist as two predicates — almost certainly not
   what the user meant.  One error per name, locating the first use of a
   conflicting arity. *)
let arity_check input =
  let tbl : (string, (int * Loc.t) list) Hashtbl.t = Hashtbl.create 32 in
  let order = ref [] in
  let see a =
    let name = Pred.name (Atom.pred a) in
    let prev = Option.value ~default:[] (Hashtbl.find_opt tbl name) in
    if prev = [] then order := name :: !order;
    if not (List.mem_assoc (Atom.arity a) prev) then
      Hashtbl.replace tbl name (prev @ [ (Atom.arity a, Atom.loc a) ])
  in
  List.iter
    (fun r ->
      List.iter see (Rule.body r);
      List.iter see (Rule.head r))
    input.rules;
  List.iter see input.facts;
  List.iter (fun q -> List.iter see (Cq.body q)) input.queries;
  List.rev !order
  |> List.filter_map (fun name ->
         match Hashtbl.find tbl name with
         | [] | [ _ ] -> None
         | (a0, l0) :: (_ :: _ as rest) ->
             let _, loc = List.hd rest in
             let arities = a0 :: List.map fst rest in
             Some
               (D.v ~loc ~code:Codes.arity_mismatch ~severity:D.Error
                  ~witness:
                    (Fmt.str "%s/%d first used at %a; %s"
                       name a0 Loc.pp l0
                       (String.concat ", "
                          (List.map
                             (fun (a, l) ->
                               Fmt.str "%s/%d at %a" name a Loc.pp l)
                             rest)))
                  "predicate %s is used with %d different arities (%s)" name
                  (List.length arities)
                  (String.concat ", " (List.map string_of_int arities))))

(* ------------------------------------------------------------------ *)
(* Per-rule hygiene                                                   *)
(* ------------------------------------------------------------------ *)

(* Head variables absent from the body are implicitly existential in
   this surface syntax; when the rule never declared them (or declared a
   different set), that is the classical range-restriction trap: a typo
   silently invents a witness. *)
let head_var_checks r =
  let body_vars = Rule.body_vars r in
  let head_vars = Rule.head_vars r in
  let declared = Rule.declared_existentials r in
  let undeclared =
    SS.filter
      (fun v ->
        (not (SS.mem v body_vars))
        &&
        match declared with Some d -> not (SS.mem v d) | None -> true)
      head_vars
  in
  let unsafe =
    SS.elements undeclared
    |> List.map (fun v ->
           let loc = loc_of_var v (Rule.head r) (Rule.loc r) in
           let witness =
             match atom_with_var v (Rule.head r) with
             | Some a -> Fmt.str "head atom %a of rule %s" Atom.pp a (Rule.name r)
             | None -> Rule.name r
           in
           D.v ~loc ~code:Codes.unsafe_head_var ~severity:D.Warning ~witness
             "head variable %s of rule %s is not bound in the body and not \
              declared existential (range restriction); it silently becomes \
              an existential witness — did you mean 'exists %s.'?"
             v (Rule.name r) v)
  in
  let declared_checks =
    match declared with
    | None -> []
    | Some d ->
        let in_body =
          SS.inter d body_vars |> SS.elements
          |> List.map (fun v ->
                 let loc = loc_of_var v (Rule.body r) (Rule.loc r) in
                 let witness =
                   match atom_with_var v (Rule.body r) with
                   | Some a ->
                       Fmt.str "body atom %a of rule %s" Atom.pp a (Rule.name r)
                   | None -> Rule.name r
                 in
                 D.v ~loc ~code:Codes.exvar_in_body ~severity:D.Warning
                   ~witness
                   "variable %s of rule %s is declared existential but also \
                    occurs in the body; the body occurrence wins and %s is a \
                    frontier variable"
                   v (Rule.name r) v)
        in
        let unused =
          SS.diff d head_vars |> SS.elements
          |> List.map (fun v ->
                 D.v ~loc:(Rule.loc r) ~code:Codes.exvar_unused
                   ~severity:D.Warning
                   ~witness:(Fmt.str "head %a of rule %s" pp_atoms (Rule.head r) (Rule.name r))
                   "declared existential variable %s of rule %s never occurs \
                    in the head"
                   v (Rule.name r))
        in
        in_body @ unused
  in
  unsafe @ declared_checks

(* A variable written exactly once in a rule binds nothing and joins
   nothing — usually a typo for another variable.  Underscore-prefixed
   names opt out, as in most Datalog lints. *)
let singleton_check r =
  let occurrences x =
    List.fold_left
      (fun n a ->
        n + List.length (List.filter (Term.equal (Term.Var x)) (Atom.args a)))
      0
      (Rule.body r @ Rule.head r)
  in
  SS.elements (Rule.body_vars r)
  |> List.filter_map (fun x ->
         if String.length x > 0 && x.[0] = '_' then None
         else if occurrences x <> 1 then None
         else
           let loc = loc_of_var x (Rule.body r) (Rule.loc r) in
           let witness =
             match atom_with_var x (Rule.body r) with
             | Some a -> Fmt.str "%a in rule %s" Atom.pp a (Rule.name r)
             | None -> Rule.name r
           in
           Some
             (D.v ~loc ~code:Codes.singleton_var ~severity:D.Warning ~witness
                "variable %s occurs only once in rule %s (prefix it with '_' \
                 if that is intended)"
                x (Rule.name r)))

let multi_head_check r =
  match Rule.head r with
  | [] | [ _ ] -> []
  | head ->
      [ D.v ~loc:(Rule.loc r) ~code:Codes.multi_head ~severity:D.Info
          ~witness:(Fmt.str "head %a" pp_atoms head)
          "rule %s has %d head atoms (outside the single-head fragment; \
           normalization splits it)"
          (Rule.name r) (List.length head) ]

(* ♠5: existential heads must be exactly [exists z. R(y, z)] with [y] in
   the body, and TGP predicates must not be re-derived by datalog rules. *)
let normalized_checks rules =
  let tgps =
    List.fold_left
      (fun acc r ->
        if Rule.is_existential r then Pred.Set.union acc (Rule.head_preds r)
        else acc)
      Pred.Set.empty rules
  in
  List.concat_map
    (fun r ->
      if Rule.is_datalog r then
        Pred.Set.inter (Rule.head_preds r) tgps
        |> Pred.Set.elements
        |> List.map (fun p ->
               D.v ~loc:(Rule.loc r) ~code:Codes.not_normalized
                 ~severity:D.Info
                 ~witness:
                   (Fmt.str
                      "datalog rule %s re-derives %s, the head predicate of \
                       an existential rule"
                      (Rule.name r) (Pred.name p))
                 "rule %s breaks the \xe2\x99\xa05 discipline: TGP predicate \
                  %s occurs in a datalog head"
                 (Rule.name r) (Pred.name p))
      else
        let bad reason witness =
          [ D.v ~loc:(Rule.loc r) ~code:Codes.not_normalized ~severity:D.Info
              ~witness
              "existential rule %s is not \xe2\x99\xa05-normalized: %s"
              (Rule.name r) reason ]
        in
        match Rule.head r with
        | [ a ] -> (
            match Atom.args a with
            | [ Term.Var y; Term.Var z ] ->
                if not (SS.mem y (Rule.body_vars r)) then
                  bad
                    (Fmt.str "first head argument %s is not a body variable" y)
                    (Fmt.str "head atom %a" Atom.pp a)
                else if SS.mem z (Rule.body_vars r) then
                  bad
                    (Fmt.str "second head argument %s is not existential" z)
                    (Fmt.str "head atom %a" Atom.pp a)
                else []
            | args when List.length args = 2 ->
                bad "the head arguments must be a frontier variable and an \
                     existential variable, in that order"
                  (Fmt.str "head atom %a" Atom.pp a)
            | args ->
                bad
                  (Fmt.str "the head must be binary [R(y,z)], got arity %d"
                     (List.length args))
                  (Fmt.str "head atom %a" Atom.pp a))
        | head ->
            bad "an existential rule must have a single head atom"
              (Fmt.str "head %a" pp_atoms head))
    rules

(* Theorem 1's scope is the binary signature: one offender atom per rule
   that leaves it. *)
let binary_checks r =
  match
    List.find_opt (fun a -> Atom.arity a > 2) (Rule.body r @ Rule.head r)
  with
  | None -> []
  | Some a ->
      [ D.v ~loc:(Atom.loc a) ~code:Codes.non_binary ~severity:D.Info
          ~witness:(Fmt.str "%a in rule %s" Atom.pp a (Rule.name r))
          "atom %a leaves the binary signature (arity %d)" Atom.pp a
          (Atom.arity a) ]

(* Guardedness: some body atom must contain every body variable.  The
   witness names the best candidate and exactly which variables it
   misses. *)
let guarded_checks r =
  let vars = Rule.body_vars r in
  let covers a = SS.subset vars (Atom.var_set a) in
  if List.exists covers (Rule.body r) then []
  else
    let best =
      List.fold_left
        (fun acc a ->
          match acc with
          | None -> Some a
          | Some b ->
              if SS.cardinal (Atom.var_set a) > SS.cardinal (Atom.var_set b)
              then Some a
              else acc)
        None (Rule.body r)
    in
    match best with
    | None -> []
    | Some a ->
        let missing = SS.diff vars (Atom.var_set a) in
        [ D.v ~loc:(Rule.loc r) ~code:Codes.non_guarded ~severity:D.Info
            ~witness:
              (Fmt.str "best candidate %a misses {%a}" Atom.pp a pp_vars
                 missing)
            "rule %s is unguarded: no body atom contains all body variables \
             {%a}"
            (Rule.name r) pp_vars vars ]

(* ------------------------------------------------------------------ *)
(* EDB-dependent checks                                               *)
(* ------------------------------------------------------------------ *)

let pred_set_of_atoms atoms =
  List.fold_left (fun acc a -> Pred.Set.add (Atom.pred a) acc) Pred.Set.empty
    atoms

let edb_checks input =
  if not input.edb_known then []
  else begin
    let fact_preds = pred_set_of_atoms input.facts in
    let head_preds =
      List.fold_left
        (fun acc r -> Pred.Set.union acc (Rule.head_preds r))
        Pred.Set.empty input.rules
    in
    let defined = Pred.Set.union fact_preds head_preds in
    let used_atoms =
      List.concat_map Rule.body input.rules
      @ List.concat_map Cq.body input.queries
    in
    let used = pred_set_of_atoms used_atoms in
    (* undefined: read somewhere, derived nowhere — once per predicate,
       at its first reading occurrence *)
    let undefined =
      let seen = Hashtbl.create 16 in
      List.filter_map
        (fun a ->
          let p = Atom.pred a in
          if Pred.Set.mem p defined || Hashtbl.mem seen p then None
          else begin
            Hashtbl.replace seen p ();
            Some
              (D.v ~loc:(Atom.loc a) ~code:Codes.undefined_pred
                 ~severity:D.Warning
                 ~witness:(Fmt.str "atom %a" Atom.pp a)
                 "predicate %s/%d is never derived: no rule head or fact \
                  mentions it"
                 (Pred.name p) (Pred.arity p))
          end)
        used_atoms
    in
    (* unused: derived somewhere, read nowhere *)
    let first_deriving p =
      match
        List.find_opt (fun a -> Pred.equal (Atom.pred a) p) input.facts
      with
      | Some a -> Some a
      | None ->
          List.find_map
            (fun r ->
              List.find_opt (fun a -> Pred.equal (Atom.pred a) p) (Rule.head r))
            input.rules
    in
    let unused =
      Pred.Set.diff defined used |> Pred.Set.elements
      |> List.map (fun p ->
             let loc, witness =
               match first_deriving p with
               | Some a -> (Atom.loc a, Fmt.str "atom %a" Atom.pp a)
               | None -> (Loc.none, Pred.name p)
             in
             D.v ~loc ~code:Codes.unused_pred ~severity:D.Info ~witness
               "predicate %s/%d is derived but never read (no rule body or \
                query mentions it)"
               (Pred.name p) (Pred.arity p))
    in
    (* reachability: a query atom whose predicate no rule chain can derive
       from the given facts makes the query trivially uncertain *)
    let reachable =
      let r = ref fact_preds in
      let changed = ref true in
      while !changed do
        changed := false;
        List.iter
          (fun rule ->
            if
              Pred.Set.subset (Rule.body_preds rule) !r
              && not (Pred.Set.subset (Rule.head_preds rule) !r)
            then begin
              r := Pred.Set.union !r (Rule.head_preds rule);
              changed := true
            end)
          input.rules
      done;
      !r
    in
    let unreachable =
      let seen = Hashtbl.create 16 in
      List.concat_map
        (fun q ->
          List.filter_map
            (fun a ->
              let p = Atom.pred a in
              if
                Pred.Set.mem p reachable
                || (not (Pred.Set.mem p defined))
                || Hashtbl.mem seen p
              then None
              else begin
                Hashtbl.replace seen p ();
                let blocking =
                  List.find_map
                    (fun r ->
                      if Pred.Set.mem p (Rule.head_preds r) then
                        Pred.Set.diff (Rule.body_preds r) reachable
                        |> Pred.Set.choose_opt
                        |> Option.map (fun b -> (r, b))
                      else None)
                    input.rules
                in
                let witness =
                  match blocking with
                  | Some (r, b) ->
                      Fmt.str
                        "rule %s derives %s but its body predicate %s is \
                         itself unreachable"
                        (Rule.name r) (Pred.name p) (Pred.name b)
                  | None -> Fmt.str "atom %a" Atom.pp a
                in
                Some
                  (D.v ~loc:(Atom.loc a) ~code:Codes.query_unreachable
                     ~severity:D.Warning ~witness
                     "query atom %a is unreachable: no chain of rules \
                      derives %s from the given facts"
                     Atom.pp a (Pred.name p))
              end)
            (Cq.body q))
        input.queries
    in
    (* unreachable-predicate: an intensional predicate whose deriving
       rules can never all fire from the given facts — the whole-theory
       reachability fixpoint (Dataflow.reachable_from) seen per
       predicate, reported at its first deriving head atom *)
    let blocking_of p =
      List.find_map
        (fun r ->
          if Pred.Set.mem p (Rule.head_preds r) then
            Pred.Set.diff (Rule.body_preds r) reachable
            |> Pred.Set.choose_opt
            |> Option.map (fun b -> (r, b))
          else None)
        input.rules
    in
    let unreachable_preds =
      Pred.Set.diff head_preds reachable |> Pred.Set.elements
      |> List.map (fun p ->
             let loc, at =
               match first_deriving p with
               | Some a -> (Atom.loc a, Fmt.str "atom %a" Atom.pp a)
               | None -> (Loc.none, Pred.name p)
             in
             let witness =
               match blocking_of p with
               | Some (r, b) ->
                   Fmt.str "rule %s is blocked by unreachable %s" (Rule.name r)
                     (Pred.name b)
               | None -> at
             in
             D.v ~loc ~code:Codes.unreachable_predicate ~severity:D.Warning
               ~witness
               "predicate %s/%d can never hold a fact: no chain of rules \
                derives it from the given facts"
               (Pred.name p) (Pred.arity p))
    in
    (* dead-rule: some body predicate is unreachable, so the rule can
       never fire — once per rule, at the first blocking body atom *)
    let dead_rules =
      List.filter_map
        (fun r ->
          List.find_opt
            (fun a -> not (Pred.Set.mem (Atom.pred a) reachable))
            (Rule.body r)
          |> Option.map (fun a ->
                 D.v ~loc:(Atom.loc a) ~code:Codes.dead_rule
                   ~severity:D.Warning
                   ~witness:(Fmt.str "atom %a" Atom.pp a)
                   "rule %s can never fire: body predicate %s is unreachable \
                    from the given facts"
                   (Rule.name r)
                   (Pred.name (Atom.pred a))))
        input.rules
    in
    (* unsatisfiable-body: a ground body atom over an extensional
       predicate (facts exist, no rule derives it) that matches no
       fact — the EDB is fixed, so the atom can never hold *)
    let unsat_bodies =
      List.concat_map
        (fun r ->
          List.filter_map
            (fun a ->
              let p = Atom.pred a in
              if
                Atom.is_ground a
                && Pred.Set.mem p fact_preds
                && (not (Pred.Set.mem p head_preds))
                && not (List.exists (Atom.equal a) input.facts)
              then
                Some
                  (D.v ~loc:(Atom.loc a) ~code:Codes.unsatisfiable_body
                     ~severity:D.Warning
                     ~witness:(Fmt.str "atom %a" Atom.pp a)
                     "rule %s can never fire: ground atom %a is over the \
                      extensional predicate %s and matches no fact"
                     (Rule.name r) Atom.pp a (Pred.name p))
              else None)
            (Rule.body r))
        input.rules
    in
    undefined @ unused @ unreachable @ unreachable_preds @ dead_rules
    @ unsat_bodies
  end

(* ------------------------------------------------------------------ *)
(* Sticky marking with provenance (Cali, Gottlob, Pieris)             *)
(* ------------------------------------------------------------------ *)

module Pos = struct
  type t = Pred.t * int

  let compare = compare
end

module Pos_map = Map.Make (Pos)

let pp_pos ppf (p, i) = Fmt.pf ppf "%s[%d]" (Pred.name p) (i + 1)

type mark_reason =
  | Erased of { rule : string; var : string }
  | Propagated of { from_pos : Pos.t; rule : string; var : string }

let positions_of x atoms =
  List.concat_map
    (fun a ->
      List.mapi (fun i t -> (i, t)) (Atom.args a)
      |> List.filter_map (fun (i, t) ->
             if Term.equal t (Term.Var x) then Some (Atom.pred a, i) else None))
    atoms

(* The SMark fixpoint, remembering *why* each position got marked: the
   base case erases a variable from some head, the inductive case
   propagates a marked head position into the rule's body. *)
let marked_with_reasons rules =
  let marked = ref Pos_map.empty in
  let add pos reason =
    if not (Pos_map.mem pos !marked) then begin
      marked := Pos_map.add pos reason !marked;
      true
    end
    else false
  in
  List.iter
    (fun r ->
      let head_vars = Rule.head_vars r in
      SS.iter
        (fun x ->
          if not (SS.mem x head_vars) then
            List.iter
              (fun p ->
                ignore (add p (Erased { rule = Rule.name r; var = x })))
              (positions_of x (Rule.body r)))
        (Rule.body_vars r))
    rules;
  let changed = ref true in
  while !changed do
    changed := false;
    List.iter
      (fun r ->
        List.iter
          (fun head_atom ->
            List.iteri
              (fun i t ->
                let hp = (Atom.pred head_atom, i) in
                if Pos_map.mem hp !marked then
                  match t with
                  | Term.Var x ->
                      List.iter
                        (fun p ->
                          if
                            add p
                              (Propagated
                                 { from_pos = hp; rule = Rule.name r; var = x })
                          then changed := true)
                        (positions_of x (Rule.body r))
                  | Term.Cst _ -> ())
              (Atom.args head_atom))
          (Rule.head r))
      rules
  done;
  !marked

(* Render the provenance chain of a marked position, base-case last. *)
let marking_trace marked pos =
  let rec go acc seen pos =
    if Pos_map.mem pos seen then List.rev acc
    else
      match Pos_map.find_opt pos marked with
      | None -> List.rev acc
      | Some (Erased { rule; var }) ->
          List.rev
            (Fmt.str "%a marked because rule %s erases %s from its head"
               pp_pos pos rule var
            :: acc)
      | Some (Propagated { from_pos; rule; var }) ->
          go
            (Fmt.str "%a marked via %s through marked head position %a of \
                      rule %s"
               pp_pos pos var pp_pos from_pos rule
            :: acc)
            (Pos_map.add pos (Erased { rule = ""; var = "" }) seen)
            from_pos
  in
  go [] Pos_map.empty pos

type sticky_violation = {
  rule : Rule.t;
  var : string;
  position : Pos.t; (* a marked body position of [var] *)
  occurrences : int;
  trace : string list; (* marking provenance, base case last *)
}

let sticky_violations_of rules =
  let marked = marked_with_reasons rules in
  let occurrences x atoms =
    List.fold_left
      (fun n a ->
        n + List.length (List.filter (Term.equal (Term.Var x)) (Atom.args a)))
      0 atoms
  in
  List.concat_map
    (fun r ->
      SS.elements (Rule.body_vars r)
      |> List.filter_map (fun x ->
             let occs = occurrences x (Rule.body r) in
             if occs <= 1 then None
             else
               positions_of x (Rule.body r)
               |> List.find_opt (fun p -> Pos_map.mem p marked)
               |> Option.map (fun position ->
                      { rule = r; var = x; position; occurrences = occs;
                        trace = marking_trace marked position }))
      )
    rules

let sticky_violations theory = sticky_violations_of (Theory.rules theory)

let sticky_checks rules =
  match sticky_violations_of rules with
  | [] -> []
  | v :: _ ->
      [ D.v ~loc:(Rule.loc v.rule) ~code:Codes.not_sticky ~severity:D.Info
          ~witness:(String.concat "; " v.trace)
          "the theory is not sticky: marked variable %s occurs %d times in \
           the body of rule %s"
          v.var v.occurrences (Rule.name v.rule) ]

(* ------------------------------------------------------------------ *)
(* Whole-theory class checks                                          *)
(* ------------------------------------------------------------------ *)

let rule_by_name rules name =
  List.find_opt (fun r -> String.equal (Rule.name r) name) rules

let linear_check rules =
  match List.find_opt (fun r -> List.length (Rule.body r) >= 2) rules with
  | None -> []
  | Some r ->
      [ D.v ~loc:(Rule.loc r) ~code:Codes.non_linear ~severity:D.Info
          ~witness:(Fmt.str "body %a" pp_atoms (Rule.body r))
          "the theory is not linear: rule %s has %d body atoms" (Rule.name r)
          (List.length (Rule.body r)) ]

let frontier_one_check rules =
  match
    List.find_opt
      (fun r ->
        Rule.is_existential r && SS.cardinal (Rule.frontier r) >= 2)
      rules
  with
  | None -> []
  | Some r ->
      [ D.v ~loc:(Rule.loc r) ~code:Codes.non_frontier_one ~severity:D.Info
          ~witness:(Fmt.str "frontier {%a}" pp_vars (Rule.frontier r))
          "outside the frontier-one class (Theorem 3): rule %s shares %d \
           variables with its head"
          (Rule.name r)
          (SS.cardinal (Rule.frontier r)) ]

let acyclicity_checks rules =
  let theory = Theory.make rules in
  let wa =
    match T.special_cycle theory with
    | None -> []
    | Some cycle ->
        let loc =
          match cycle with
          | e :: _ -> (
              match rule_by_name rules e.T.rule with
              | Some r -> Rule.loc r
              | None -> Loc.none)
          | [] -> Loc.none
        in
        [ D.v ~loc ~code:Codes.wa_cycle ~severity:D.Info
            ~witness:(Fmt.str "%a" T.pp_cycle cycle)
            "the theory is not weakly acyclic: a special edge of the \
             position dependency graph lies on a cycle (the chase may not \
             terminate)" ]
  in
  let ja =
    match T.joint_cycle theory with
    | None -> []
    | Some cycle ->
        let loc =
          match cycle with
          | (rname, _) :: _ -> (
              match rule_by_name rules rname with
              | Some r -> Rule.loc r
              | None -> Loc.none)
          | [] -> Loc.none
        in
        [ D.v ~loc ~code:Codes.ja_cycle ~severity:D.Info
            ~witness:(Fmt.str "%a" T.pp_joint_cycle cycle)
            "the theory is not jointly acyclic: the existential-variable \
             dependency graph has a cycle" ]
  in
  wa @ ja

(* ------------------------------------------------------------------ *)
(* The pass                                                           *)
(* ------------------------------------------------------------------ *)

let analyze input =
  let per_rule =
    List.concat_map
      (fun r ->
        head_var_checks r @ singleton_check r @ multi_head_check r
        @ binary_checks r @ guarded_checks r)
      input.rules
  in
  List.concat
    [ arity_check input;
      per_rule;
      normalized_checks input.rules;
      edb_checks input;
      linear_check input.rules;
      frontier_one_check input.rules;
      acyclicity_checks input.rules;
      sticky_checks input.rules
    ]
  |> List.sort D.compare

let analyze_program p = analyze (of_program p)
let analyze_theory theory = analyze (of_theory theory)

let has_code code diags =
  List.exists (fun d -> String.equal d.D.code code) diags

let find_code code diags =
  List.find_opt (fun d -> String.equal d.D.code code) diags
