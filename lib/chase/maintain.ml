(* Incremental chase maintenance: given a saturated instance plus a
   batch of EDB insertions and retractions, produce the saturated
   instance of the updated database without re-chasing from scratch.

   Insertions are the cheap side: the restricted chase is monotone in
   its witness checks (once blocked, always blocked), so a fixpoint
   stays a fixpoint on every trigger it already saw.  Staging the new
   base facts at a fresh birth round and resuming semi-naive rounds
   (Chase.resume) evaluates exactly the bindings that touch the delta —
   the same windows the live chase runs on, at churn-sized cost.

   Retractions run DRed-style delete/rederive over the first-derivation
   edges recorded at saturation time (Provenance's recorder on Chase's
   [record] hook):

     - overdelete: the downward closure of the retracted facts along
       recorded body edges.  Recorded bodies are born strictly before
       their heads, so the closure is computable in ONE pass over the
       facts in arrival order — no iteration to a fixpoint.
     - rederive: head-driven repair.  A deletion can only break a
       trigger by removing its witness, and that witness is in the
       cone — so unifying each cone fact against the rule heads
       recovers exactly the broken triggers, at |cone| x (one body
       join seeded with the head binding) cost instead of a
       full-instance join pass.  A datalog head whose body still holds
       is re-added outright; an existential head refires (fresh nulls)
       iff its body holds and no surviving witness does — the same
       restricted-chase check the live rounds make.  Either way the
       trigger fires through Chase.commit, like every live round.
       Repaired facts are staged at the same fresh birth round as the
       inserted batch, so cascades ride the normal semi-naive
       resumption.

   Correctness (DESIGN.md section 14): every surviving fact keeps a
   recorded derivation grounded in surviving base facts, so the resumed
   run starts from a justified sub-instance of a chase state of the
   updated database; resuming to fixpoint yields a universal model of
   (T, D'), and any two universal models are hom-equivalent — which is
   exactly what the differential suite checks (both directions) against
   a from-scratch chase.

   Cost model: when the overdeleted cone exceeds [bailout] x |instance|
   the rederivation pass would approach a full re-chase anyway, so we
   bail out and re-chase the updated database (counted in
   maintain.bailouts).  States whose chase was truncated (outcome other
   than [Fixpoint]) always take the bailout path: a prefix has no
   fixpoint to resume from. *)

open Bddfc_budget
open Bddfc_logic
open Bddfc_structure
open Bddfc_hom

module Obs = Bddfc_obs.Obs

type state = {
  inst : Instance.t;
  reasons : Provenance.reason Fact.Table.t;
  rounds : int;
  outcome : Chase.outcome;
}

type stats = {
  deleted : int;
  rederived : int;
  inserted : int;
  resumed_rounds : int;
  bailed_out : bool;
}

let no_stats =
  { deleted = 0; rederived = 0; inserted = 0; resumed_rounds = 0;
    bailed_out = false }

let m_runs = Obs.Metrics.counter "maintain.runs"
let m_deleted = Obs.Metrics.counter "maintain.facts_deleted"
let m_rederived = Obs.Metrics.counter "maintain.facts_rederived"
let m_inserted = Obs.Metrics.counter "maintain.facts_inserted"
let m_bailouts = Obs.Metrics.counter "maintain.bailouts"
let m_resumed = Obs.Metrics.counter "maintain.rounds_resumed"

(* Resolve a ground atom to a fact of [inst], if its constants are all
   interned there.  @raise Invalid_argument on a variable. *)
let fact_of_atom inst a =
  let rec go acc = function
    | [] -> Some (Fact.make (Atom.pred a) (Array.of_list (List.rev acc)))
    | Term.Cst c :: rest -> (
        match Instance.const_opt inst c with
        | Some id -> go (id :: acc) rest
        | None -> None)
    | Term.Var x :: _ ->
        invalid_arg ("Maintain: variable " ^ x ^ " in update fact")
  in
  go [] (Atom.args a)

(* Drain a recording into the reasons table (first derivation wins) and
   count the recorded facts that were in the overdeleted cone. *)
let absorb_records drain inst reasons ~dead =
  let facts = drain inst reasons in
  let rederived = List.length (List.filter (Fact.Table.mem dead) facts) in
  (rederived, List.length facts - rederived)

let saturate ?strategy ?eval ?budget ?max_rounds ?max_elements theory db =
  let p =
    Provenance.run ?strategy ?eval ?budget ?max_rounds ?max_elements theory db
  in
  {
    inst = p.Provenance.instance;
    reasons = p.Provenance.reasons;
    rounds = p.Provenance.rounds;
    outcome =
      (match p.Provenance.tripped with
      | Some r -> Chase.Exhausted r
      | None -> Chase.Fixpoint);
  }

(* Apply an update batch to a *base* database (retractions first, then
   insertions, so a fact in both ends up present).  Returns
   (inserted, retracted) counts of facts actually changed. *)
let update_db db ~insert ~retract =
  let removed =
    Instance.remove_facts db (List.filter_map (fact_of_atom db) retract)
  in
  let added =
    List.fold_left
      (fun n a -> if Instance.add_atom db a then n + 1 else n)
      0 insert
  in
  (added, removed)

let default_bailout = 0.5

let apply ?strategy ?eval ?budget ?max_rounds ?max_elements
    ?(bailout = default_bailout) theory ~db state ~insert ~retract =
  Obs.Metrics.incr m_runs;
  Obs.Trace.span "maintain.apply" @@ fun () ->
  let inst = state.inst in
  (* Retractions are EDB-only: resolve each atom against the saturated
     instance and keep the ones that are recorded base facts.  (A fact
     of the instance that is merely derived was never in the database,
     so retracting it is a no-op — DRed retracts givens.) *)
  let retract_facts =
    List.filter_map
      (fun a ->
        match fact_of_atom inst a with
        | Some f -> (
            match Fact.Table.find_opt state.reasons f with
            | Some Provenance.Given -> Some f
            | _ -> None)
        | None -> None)
      retract
  in
  let noop = retract_facts = [] && insert = [] in
  let bail () =
    Obs.Metrics.incr m_bailouts;
    let st =
      saturate ?strategy ?eval ?budget ?max_rounds ?max_elements theory db
    in
    (st, { no_stats with bailed_out = true })
  in
  if noop then (state, no_stats)
  else
  match state.outcome with
  | Chase.Watched | Chase.Exhausted _ -> bail ()
  | Chase.Fixpoint ->
      (* Overdelete: one pass in arrival order suffices because recorded
         body facts are born strictly before their heads. *)
      let dead = Fact.Table.create 64 in
      List.iter (fun f -> Fact.Table.replace dead f ()) retract_facts;
      if retract_facts <> [] then
        List.iter
          (fun f ->
            if not (Fact.Table.mem dead f) then
              match Fact.Table.find_opt state.reasons f with
              | Some (Provenance.Derived { body; _ }) ->
                  if List.exists (fun b -> Fact.Table.mem dead b) body then
                    Fact.Table.replace dead f ()
              | _ -> ())
          (Instance.facts inst);
      let cone = Fact.Table.length dead in
      let n0 = Instance.num_facts inst in
      if n0 > 0 && float_of_int cone > bailout *. float_of_int n0 then bail ()
      else begin
        let cone_facts =
          List.filter (fun f -> Fact.Table.mem dead f) (Instance.facts inst)
        in
        let deleted = Instance.remove_facts inst cone_facts in
        List.iter (fun f -> Fact.Table.remove state.reasons f) cone_facts;
        (* Stage the inserted batch at a fresh birth round: it becomes
           the delta the first resumed round joins against.  An insert
           already present (as a derived fact) is upgraded to Given — it
           is EDB-supported now and must never be overdeleted. *)
        let r0 = max state.rounds (Instance.max_fact_birth inst) + 1 in
        let inserted_base = ref 0 in
        List.iter
          (fun a ->
            if Instance.add_atom ~birth:r0 inst a then incr inserted_base;
            match fact_of_atom inst a with
            | Some f -> Fact.Table.replace state.reasons f Provenance.Given
            | None -> assert false)
          insert;
        let record, drain = Provenance.recorder () in
        (* Head-driven repair.  A broken trigger is one whose witness
           check newly fails, and every witness it ever had is in the
           cone — so for each cone fact, unify it with each rule head
           (existential slots unconstrained: the old null ids are gone
           and must not leak) and re-evaluate the body seeded with the
           recovered binding.  Rederivations land at birth [r0], making
           them part of the first resumed delta window; a dead fact
           rederivable only via another dead fact is caught by the
           cascading rounds, so one repair sweep suffices. *)
        if deleted > 0 then begin
          let b = Option.value budget ~default:Budget.unlimited in
          let unify_head exist atom f =
            let fargs = Fact.args f in
            let rec go i binding = function
              | [] -> Some binding
              | t :: rest -> (
                  let id = fargs.(i) in
                  match t with
                  | Term.Cst c -> (
                      match Instance.const_opt inst c with
                      | Some cid when cid = id -> go (i + 1) binding rest
                      | _ -> None)
                  | Term.Var x -> (
                      if Rule.SS.mem x exist then go (i + 1) binding rest
                      else
                        match Smap.find_opt x binding with
                        | Some id' when id' = id -> go (i + 1) binding rest
                        | Some _ -> None
                        | None -> go (i + 1) (Smap.add x id binding) rest))
            in
            let args = Atom.args atom in
            if List.length args <> Array.length fargs then None
            else go 0 Smap.empty args
          in
          let tally = { Chase.added = 0; nulls = 0 } in
          List.iter
            (fun rule ->
              let exist = Rule.existential_vars rule in
              let frontier = Rule.frontier rule in
              let heads = Rule.head rule in
              let body = Eval.prepare (Rule.body rule) in
              let head = Eval.prepare heads in
              (* a datalog head whose body holds comes back outright; an
                 existential head refires iff no surviving witness
                 blocks it — the live rounds' restricted-chase check *)
              let fires binding =
                Rule.is_datalog rule
                || Eval.first_env
                     ~init:
                       (Smap.filter (fun x _ -> Rule.SS.mem x frontier)
                          binding)
                     ?engine:eval inst head
                   = None
              in
              List.iter
                (fun f ->
                  List.iter
                    (fun head_atom ->
                      if Pred.equal (Atom.pred head_atom) (Fact.pred f) then
                        match
                          Option.bind (unify_head exist head_atom f)
                            (fun init ->
                              Option.map
                                (Eval.binding_of_prepared body)
                                (Eval.first_env ~init ?engine:eval inst body))
                        with
                        | Some bnd when fires bnd ->
                            Chase.commit ~record ~budget:b ~round:r0 tally
                              inst rule bnd
                        | Some _ | None -> ())
                    heads)
                cone_facts)
            (Theory.rules theory)
        end;
        let res =
          Chase.resume ?strategy ?eval ?budget ?max_rounds ?max_elements
            ~record ~from_round:r0 theory inst
        in
        (match res.Chase.outcome with
        | Chase.Fixpoint -> ()
        | Chase.Exhausted r ->
            (* a half-maintained instance is NOT a chase prefix of the
               updated database (deletions already landed, rederivations
               may be missing), so exhaustion poisons the state rather
               than truncating it — callers treat it like any other
               failed request *)
            raise (Budget.Exhausted r)
        | Chase.Watched -> assert false);
        let rederived, fresh = absorb_records drain inst state.reasons ~dead in
        let resumed = max 0 (res.Chase.rounds - r0) in
        Obs.Metrics.add m_deleted deleted;
        Obs.Metrics.add m_rederived rederived;
        Obs.Metrics.add m_inserted (!inserted_base + fresh);
        Obs.Metrics.add m_resumed resumed;
        ( { state with rounds = res.Chase.rounds; outcome = Chase.Fixpoint },
          {
            deleted;
            rederived;
            inserted = !inserted_base + fresh;
            resumed_rounds = resumed;
            bailed_out = false;
          } )
      end
