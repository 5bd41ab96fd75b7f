(* Multi-head TGD elimination (Section 5.3, unrestricted arity): a
   multi-head TGD is replaced by a single-head TGD whose head joins all
   the head atoms into one fresh predicate over the head variables, plus
   datalog rules splitting the join back.

   The paper notes this transformation is impossible *within* binary
   signatures (the join predicate has the arity of the head variable set),
   which is why the multi-head binary BDD/FC conjecture is equivalent to
   the full conjecture. *)

open Bddfc_logic

type result = {
  theory : Theory.t;
  joins : (string * Pred.t) list; (* original rule -> join predicate *)
}

let to_single_head theory =
  let counter = ref 0 in
  let joins = ref [] in
  let rules =
    List.concat_map
      (fun rule ->
        match Rule.head rule with
        | [ _ ] -> [ rule ]
        | heads ->
            incr counter;
            let head_vars =
              Rule.SS.elements (Atom.vars_of_atoms heads)
            in
            let j =
              Pred.invented
                (Printf.sprintf "join_%s_%d" (Rule.name rule) !counter)
                (List.length head_vars)
            in
            joins := (Rule.name rule, j) :: !joins;
            let jatom = Atom.make j (List.map Term.var head_vars) in
            let tgd =
              Rule.make ~name:(Rule.name rule) ~body:(Rule.body rule)
                ~head:[ jatom ] ()
            in
            let splitters =
              List.mapi
                (fun i h ->
                  Rule.make
                    ~name:(Printf.sprintf "%s_split%d" (Rule.name rule) i)
                    ~body:[ jatom ] ~head:[ h ] ())
                heads
            in
            tgd :: splitters)
      (Theory.rules theory)
  in
  { theory = Theory.make rules; joins = !joins }
