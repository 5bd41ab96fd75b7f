(* Ground-once small-model search.  The countermodel question over a fixed
   domain is grounded into clauses over candidate-fact variables in one
   pass of joins over the instance holding every candidate, then decided
   by a small DPLL: unit propagation over occurrence lists, chronological
   backtracking, branching on the fact variables only.  Refutations are
   logged as RUP lemmas for the independent checker in [Rup]. *)

open Bddfc_budget
open Bddfc_logic
open Bddfc_structure
open Bddfc_hom
open Bddfc_chase
module Obs = Bddfc_obs.Obs

let m_nodes = Obs.Metrics.counter "naive.nodes"
let m_clauses = Obs.Metrics.counter "naive.absence_clauses"
let m_decisions = Obs.Metrics.counter "naive.absence_decisions"

type space = { base : Instance.t; candidates : Fact.t array }

let rec tuples elements k =
  if k = 0 then [ [] ]
  else
    List.concat_map
      (fun e -> List.map (fun t -> e :: t) (tuples elements (k - 1)))
      elements

let space ~max_extra theory db =
  let base = Instance.copy db in
  for _ = 1 to max_extra do
    ignore (Instance.fresh_null base ~birth:0 ~rule:"extra" ~parent:None)
  done;
  let elements = Instance.elements base in
  let preds =
    Pred.Set.elements (Signature.pred_set (Theory.signature theory))
  in
  let candidates =
    List.concat_map
      (fun p ->
        List.filter_map
          (fun t ->
            let f = Fact.make p (Array.of_list t) in
            if Instance.mem_fact base f then None else Some f)
          (tuples elements (Pred.arity p)))
      preds
  in
  { base; candidates = Array.of_list candidates }

(* ----------------------------------------------------------------- *)
(* Grounding                                                          *)
(* ----------------------------------------------------------------- *)

type cnf = { num_vars : int; clauses : int array list }

module Fact_tbl = Hashtbl.Make (Fact)

let charge budget counter =
  Obs.Metrics.incr counter;
  Obs.Metrics.incr m_nodes;
  Budget.charge budget Budget.Nodes 1

let ground ?eval ~budget theory query sp =
  let k = Array.length sp.candidates in
  let full = Instance.copy sp.base in
  let var = Fact_tbl.create (2 * k) in
  Array.iteri
    (fun i f ->
      ignore (Instance.add_fact full f);
      Fact_tbl.replace var f (i + 1))
    sp.candidates;
  (* the candidate variables of a matched conjunction: D's facts are
     always true and drop out *)
  let vars_of atoms b =
    List.sort_uniq compare
      (List.filter_map
         (fun a ->
           Fact_tbl.find_opt var
             (Chase.instantiate full b
                (fun x -> invalid_arg ("Absence.ground: unbound " ^ x))
                a))
         atoms)
  in
  let num_vars = ref k and clauses = ref [] in
  let aux = Hashtbl.create 16 in
  let emit lits =
    clauses := Array.of_list (List.sort_uniq compare lits) :: !clauses
  in
  let witness = function
    | [ v ] -> v
    | vs -> (
        match Hashtbl.find_opt aux vs with
        | Some a -> a
        | None ->
            incr num_vars;
            let a = !num_vars in
            Hashtbl.add aux vs a;
            List.iter (fun v -> emit [ -a; v ]) vs;
            a)
  in
  (* each rule's body and head compiled once: the head runs once per
     body solution *)
  List.iter
    (fun rule ->
      let frontier = Rule.frontier rule in
      let body = Eval.prepare (Rule.body rule) in
      let head = Eval.prepare (Rule.head rule) in
      Eval.iter_env ?engine:eval full body (fun env ->
          let b = Eval.binding_of_prepared body env in
          charge budget m_clauses;
          let heads = ref [] in
          let init = Smap.filter (fun x _ -> Rule.SS.mem x frontier) b in
          Eval.iter_env ?engine:eval ~init full head (fun env ->
              let h = Eval.binding_of_prepared head env in
              heads := vars_of (Rule.head rule) h :: !heads);
          (* a witness made of D's facts alone satisfies the clause *)
          if not (List.mem [] !heads) then
            emit
              (List.rev_map witness !heads
              @ List.map (fun v -> -v) (vars_of (Rule.body rule) b))))
    (Theory.rules theory);
  Eval.iter_solutions ?engine:eval full (Cq.body query) (fun b ->
      charge budget m_clauses;
      emit (List.map (fun v -> -v) (vars_of (Cq.body query) b)));
  { num_vars = !num_vars; clauses = List.rev !clauses }

(* ----------------------------------------------------------------- *)
(* DPLL                                                               *)
(* ----------------------------------------------------------------- *)

type outcome = Sat of bool array | Unsat of int array list

exception Found

let solve ~on_decision ~branch cnf =
  let n = cnf.num_vars in
  let index l = if l > 0 then 2 * l else (2 * -l) + 1 in
  let occ = Array.make ((2 * n) + 2) [] in
  List.iter
    (fun c -> Array.iter (fun l -> occ.(index l) <- c :: occ.(index l)) c)
    cnf.clauses;
  let value = Array.make (n + 1) 0 in
  let lit l = if l > 0 then value.(l) else -value.(-l) in
  let trail = Array.make (n + 1) 0 and size = ref 0 and head = ref 0 in
  let assign l =
    value.(abs l) <- (if l > 0 then 1 else -1);
    trail.(!size) <- l;
    incr size
  in
  let undo mark =
    while !size > mark do
      decr size;
      value.(abs trail.(!size)) <- 0
    done;
    head := mark
  in
  (* the status of a clause: [false] when falsified; assigns a unit *)
  let visit c =
    let open_lits = ref 0 and open_lit = ref 0 and sat = ref false in
    Array.iter
      (fun l ->
        match lit l with
        | 1 -> sat := true
        | 0 ->
            incr open_lits;
            open_lit := l
        | _ -> ())
      c;
    if !sat || !open_lits > 1 then true
    else if !open_lits = 1 then (assign !open_lit; true)
    else false
  in
  let rec propagate () =
    !head >= !size
    ||
    let l = trail.(!head) in
    incr head;
    List.for_all visit occ.(index (-l)) && propagate ()
  in
  let log = ref [] in
  let lemma decisions extra =
    log := Array.of_list (extra @ List.map (fun d -> -d) decisions) :: !log
  in
  let rec pick v = if v = 0 || value.(v) = 0 then v else pick (v - 1) in
  (* [search decisions] returns [`Leaf] on a propagation conflict and
     [`Node] once both branches of a decision failed, having logged the
     negated decisions.  The false branch's failure is logged as
     [decisions -> v] (a node logs it itself), so the node's own lemma is
     RUP; the true branch's leaf conflicts need no lemma. *)
  let rec search decisions =
    if not (propagate ()) then `Leaf
    else
      match pick branch with
      | 0 -> raise Found
      | v ->
          on_decision ();
          let mark = !size in
          assign (-v);
          if search (-v :: decisions) = `Leaf then lemma decisions [ v ];
          undo mark;
          assign v;
          ignore (search (v :: decisions));
          undo mark;
          lemma decisions [];
          `Node
  in
  let initial = List.for_all visit cnf.clauses in
  match if initial then search [] else `Leaf with
  | `Leaf ->
      lemma [] [];
      Unsat (List.rev !log)
  | `Node -> Unsat (List.rev !log)
  | exception Found -> Sat (Array.init branch (fun i -> value.(i + 1) > 0))

(* ----------------------------------------------------------------- *)
(* The decision                                                       *)
(* ----------------------------------------------------------------- *)

type answer = Model of Instance.t | Refuted of cnf * int array list

let decide ?eval ~budget theory query sp =
  let cnf = ground ?eval ~budget theory query sp in
  let k = Array.length sp.candidates in
  let outcome =
    solve ~on_decision:(fun () -> charge budget m_decisions) ~branch:k cnf
  in
  if Obs.Trace.enabled () then begin
    Obs.Trace.attr "vars" (Obs.Int cnf.num_vars);
    Obs.Trace.attr "clauses" (Obs.Int (List.length cnf.clauses))
  end;
  match outcome with
  | Sat bits ->
      let m = Instance.copy sp.base in
      Array.iteri
        (fun i f -> if bits.(i) then ignore (Instance.add_fact m f))
        sp.candidates;
      Model m
  | Unsat log -> Refuted (cnf, log)
