(* The two normalizations of Section 3.1.

   ♠4 — hiding the query: enrich the theory with Q(x, y) -> exists z.
   F(y, z) for a fresh predicate F; a finite model of T0, D avoiding Q
   exists iff a finite model of the enriched theory avoiding F exists.

   ♠5 — TGP discipline: every existential head becomes exists z. R'(y, z)
   with a fresh tuple-generating predicate R' that occurs in no other rule
   head, plus a datalog rule translating R' back.  This neither changes
   the BDD status nor the FC status of the theory (the paper leaves the
   check as an exercise; the test suite performs it on examples).

   The pass also covers the Section 5.1 generalization: a head
   exists z1...zk. Phi(y, z-bar) whose only frontier variable is y is
   split into k binary TGPs R_i(y, z_i) plus the joining datalog rule
   R_1(y,z1), ..., R_k(y,zk) -> Phi(y, z-bar). *)

open Bddfc_logic

type hidden = {
  theory : Theory.t;
  query_pred : Pred.t; (* the fresh F *)
}

(* ♠4.  The query is made Boolean first (FC quantifies over Boolean
   queries; answer variables are existentially closed). *)
let hide_query theory (q : Cq.t) =
  let f = Pred.invented "f_hidden" 2 in
  let vars = Cq.SS.elements (Cq.all_vars q) in
  let y_term =
    match vars with
    | y :: _ -> Term.Var y
    | [] -> (
        (* fully ground query: anchor F at one of its constants *)
        match Cq.SS.elements (Cq.consts q) with
        | c :: _ -> Term.Cst c
        | [] -> invalid_arg "Normalize.hide_query: empty query")
  in
  let z = Term.fresh_var ~prefix:"_Z" () in
  let rule =
    Rule.make ~name:"hide_query" ~body:(Cq.body q)
      ~head:[ Atom.make f [ y_term; Term.Var z ] ]
      ()
  in
  { theory = Theory.add_rule rule theory; query_pred = f }

exception Unsupported of string

type split = {
  theory : Theory.t;
  tgps : Pred.t list; (* the fresh tuple generating predicates *)
}

let fresh_pred_name used base =
  let rec go i =
    let cand = if i = 0 then base else base ^ string_of_int i in
    if List.mem cand used then go (i + 1) else cand
  in
  go 0

(* The TGPs are invented ([Pred.invented]), so they only need to differ
   from each other. *)
let spade5 theory =
  let used = ref [] in
  let fresh base =
    let name = fresh_pred_name !used base in
    used := name :: !used;
    name
  in
  let tgps = ref [] in
  let rules =
    List.concat_map
      (fun rule ->
        if Rule.is_datalog rule then [ rule ]
        else
          match Rule.head rule with
          | [ head ] ->
              let head_frontier =
                Rule.SS.inter (Atom.var_set head) (Rule.body_vars rule)
              in
              (* the witness may depend on at most one element: the paper's
                 binary heads and the Theorem 3 class *)
              if Rule.SS.cardinal head_frontier > 1 then
                raise
                  (Unsupported
                     (Printf.sprintf
                        "rule %s: existential head with %d frontier \
                         variables (only frontier-one heads are supported \
                         by the Theorem 1/3 construction)"
                        (Rule.name rule)
                        (Rule.SS.cardinal head_frontier)));
              let y =
                match Rule.SS.elements head_frontier with
                | [ y ] -> Some (Term.Var y)
                | _ -> (
                    (* head touches no body variable: anchor anywhere, at
                       a constant of the rule when the body is ground (as
                       [hide_query] does for a ground query) *)
                    match Rule.SS.elements (Rule.body_vars rule) with
                    | y :: _ -> Some (Term.Var y)
                    | [] -> (
                        match Atom.SS.elements (Rule.consts rule) with
                        | c :: _ -> Some (Term.Cst c)
                        | [] -> None))
              in
              let zs = Rule.SS.elements (Rule.existential_vars rule) in
              (match y with
              | None ->
                  raise
                    (Unsupported
                       (Printf.sprintf "rule %s: ground body without constants"
                          (Rule.name rule)))
              | Some y ->
                  let ws =
                    List.map
                      (fun z ->
                        let w =
                          Pred.invented
                            (fresh (Pred.name (Atom.pred head) ^ "_w")) 2
                        in
                        tgps := w :: !tgps;
                        (z, w))
                      zs
                  in
                  let tgds =
                    List.map
                      (fun (z, w) ->
                        let name =
                          if List.length ws = 1 then Rule.name rule
                          else Rule.name rule ^ "_" ^ z
                        in
                        Rule.make ~name ~body:(Rule.body rule)
                          ~head:[ Atom.make w [ y; Term.Var z ] ]
                          ())
                      ws
                  in
                  let back_body =
                    List.map
                      (fun (z, w) -> Atom.make w [ y; Term.Var z ])
                      ws
                  in
                  let back =
                    Rule.make
                      ~name:(Rule.name rule ^ "_back")
                      ~body:back_body ~head:[ head ] ()
                  in
                  tgds @ [ back ])
          | _ ->
              raise
                (Unsupported
                   "multi-head rule; apply \
                    Bddfc_classes.Multihead.to_single_head first"))
      (Theory.rules theory)
  in
  { theory = Theory.make rules; tgps = !tgps }
