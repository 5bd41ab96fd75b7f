(* Derivation provenance for the chase: record, for every fact, the
   first rule application that produced it (its rule, round and the body
   facts it consumed).  [explain] unfolds the records into a derivation
   tree, and [depth] is the derivation depth in the sense of Section 1.1
   — the quantity the BDD property bounds.

   The records come from the chase itself: [run] is Chase.run with the
   [record] hook filled by [recorder], so the instance, the budget
   accounting and the chase.* counters are exactly those of a plain run,
   under every strategy. *)

open Bddfc_budget
open Bddfc_logic
open Bddfc_structure

type reason =
  | Given (* a fact of the input instance D *)
  | Derived of {
      rule : string;
      round : int;
      body : Fact.t list; (* the instantiated body facts *)
    }

type t = {
  instance : Instance.t;
  reasons : reason Fact.Table.t;
  rounds : int;
  saturated : bool;
  tripped : Budget.resource option; (* which budget stopped the chase *)
}

let reason_of t f = Fact.Table.find_opt t.reasons f

(* Instantiated body facts of a binding. *)
let body_facts inst binding atoms =
  List.map
    (fun a ->
      let ids =
        List.map
          (function
            | Term.Cst c -> (
                match Instance.const_opt inst c with
                | Some id -> id
                | None -> invalid_arg "Provenance: unknown constant")
            | Term.Var x -> (
                match Smap.find_opt x binding with
                | Some id -> id
                | None -> invalid_arg "Provenance: unbound body variable"))
          (Atom.args a)
      in
      Fact.make (Atom.pred a) (Array.of_list ids))
    atoms

(* The stream is buffered because a run's working instance — where body
   constants resolve — only exists once Chase.run returns. *)
let recorder () =
  let buf = ref [] in
  let record ~round ~rule ~binding f =
    buf := (round, rule, binding, f) :: !buf
  in
  let drain inst reasons =
    let stream = List.rev !buf in
    buf := [];
    List.iter
      (fun (round, rule, binding, f) ->
        if not (Fact.Table.mem reasons f) then
          Fact.Table.replace reasons f
            (Derived
               {
                 rule = Rule.name rule;
                 round;
                 body = body_facts inst binding (Rule.body rule);
               }))
      stream;
    List.map (fun (_, _, _, f) -> f) stream
  in
  (record, drain)

let run ?strategy ?eval ?budget ?max_rounds ?max_elements theory base =
  Bddfc_obs.Obs.Trace.span "provenance.run" @@ fun () ->
  let record, drain = recorder () in
  let res =
    Chase.run ?strategy ?eval ~record ?budget ?max_rounds ?max_elements theory
      base
  in
  let inst = res.Chase.instance in
  let reasons = Fact.Table.create (max 64 (Instance.num_facts inst)) in
  List.iter (fun f -> Fact.Table.replace reasons f Given) res.Chase.base_facts;
  ignore (drain inst reasons);
  {
    instance = inst;
    reasons;
    rounds = res.Chase.rounds;
    saturated = Chase.is_model res;
    tripped =
      (match res.Chase.outcome with
      | Chase.Exhausted r -> Some r
      | Chase.Fixpoint | Chase.Watched -> None);
  }

(* A derivation tree for a fact. *)
type tree =
  | Leaf of Fact.t (* a given fact *)
  | Node of Fact.t * string * tree list

let rec explain ?(fuel = 10_000) t f =
  if fuel <= 0 then None
  else
    match reason_of t f with
    | None -> None
    | Some Given -> Some (Leaf f)
    | Some (Derived { rule; body; _ }) ->
        let subs = List.map (explain ~fuel:(fuel - 1) t) body in
        if List.for_all Option.is_some subs then
          Some (Node (f, rule, List.map Option.get subs))
        else None

(* Derivation depth: 0 for given facts, 1 + max over the body otherwise.
   This is the depth Chase^k measures, and BDD bounds per query. *)
let depth t f =
  let memo = Fact.Table.create 64 in
  let rec go f =
    match Fact.Table.find_opt memo f with
    | Some d -> d
    | None ->
        Fact.Table.replace memo f 0 (* cycle guard *);
        let d =
          match reason_of t f with
          | None | Some Given -> 0
          | Some (Derived { body; _ }) ->
              1 + List.fold_left (fun m b -> max m (go b)) 0 body
        in
        Fact.Table.replace memo f d;
        d
  in
  go f

let max_depth t =
  List.fold_left
    (fun m f -> max m (depth t f))
    0
    (Instance.facts t.instance)

let rec pp_tree ppf = function
  | Leaf f -> Fmt.pf ppf "%a (given)" Fact.pp f
  | Node (f, rule, subs) ->
      Fmt.pf ppf "@[<v2>%a by %s@,%a@]" Fact.pp f rule
        Fmt.(list ~sep:cut pp_tree)
        subs
