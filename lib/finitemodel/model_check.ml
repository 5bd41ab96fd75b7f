(* Model checking: does a finite structure satisfy a theory?  Every body
   homomorphism must have its head satisfied — for datalog rules the
   instantiated head atoms must be facts, for existential rules a witness
   must exist. *)

open Bddfc_logic
open Bddfc_structure
open Bddfc_hom

type violation = {
  rule : Rule.t;
  binding : (string * Element.id) list; (* a body homomorphism sample *)
}

exception Enough

(* Each rule's body and head are compiled on first use and kept by the
   closure [violations ?limit ?eval theory] returns: the body runs once
   per instance, the head once per body solution.  A full application
   compiles what it uses once; a caller that checks many instances
   against one theory applies it to the theory once. *)
let violations ?(limit = 10) ?eval theory =
  let rules =
    List.map
      (fun rule ->
        ( rule,
          lazy (Eval.prepare (Rule.body rule), Eval.prepare (Rule.head rule)) ))
      (Theory.rules theory)
  in
  fun inst ->
    let found = ref [] in
    let count = ref 0 in
    (try
       List.iter
         (fun (rule, plans) ->
           let body, head = Lazy.force plans in
           let frontier = Rule.frontier rule in
           Eval.iter_env ?engine:eval inst body (fun env ->
               let binding = Eval.binding_of_prepared body env in
               let init =
                 Smap.filter (fun x _ -> Rule.SS.mem x frontier) binding
               in
               if Eval.first_env ~init ?engine:eval inst head = None then begin
                 found := { rule; binding = Smap.bindings binding } :: !found;
                 incr count;
                 if !count >= limit then raise Enough
               end))
         rules
     with Enough -> ());
    List.rev !found

let is_model ?eval theory inst = violations ~limit:1 ?eval theory inst = []

(* Does the instance contain every fact of [d]?  Element ids need not
   agree; constants are matched by name and [d]'s facts must embed
   pointwise (no renaming of nulls: D is a ground database). *)
let contains_database ~db inst =
  List.for_all
    (fun atom ->
      let ids =
        List.map
          (function
            | Term.Cst c -> Instance.const_opt inst c
            | Term.Var _ -> None)
          (Atom.args atom)
      in
      List.for_all Option.is_some ids
      && Instance.mem_fact inst
           (Fact.make (Atom.pred atom)
              (Array.of_list (List.map Option.get ids))))
    (Instance.to_atoms db)

let pp_violation ppf v =
  Fmt.pf ppf "rule %s violated at {%a}" (Rule.name v.rule)
    Fmt.(list ~sep:(any ", ") (pair ~sep:(any ":") string int))
    v.binding
