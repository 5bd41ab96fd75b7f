(* Conjunctive-query containment via the canonical (frozen) instance.

   [q1] is contained in [q2] (every answer of q1 is an answer of q2, over
   all instances) iff there is a homomorphism from q2 into the frozen body
   of q1 mapping answer variables of q2 to the frozen answer variables of
   q1 in order.

   Two modes (Hc.mode, default Interned): the structural path below is
   the original code, kept verbatim as the differential oracle; the
   interned path routes each (general, specific) pair through the Hc
   unique table and replays cached verdicts by id.  Containment is
   invariant under α-renaming of either query, so verdicts computed on
   the canonical representatives are correct for every α-variant pair
   hitting the same ids.

   On a memo miss the interned path first runs [shape_rejects], a
   cheap atom-shape test that refutes most hopeless pairs without
   building the frozen instance — the computed-table discipline of a
   BDD package: the cheap test before the expensive apply.  It sits
   inside the memo's compute, so lookups and hits keep their meaning,
   and the structural oracle never sees it. *)

open Bddfc_logic
open Bddfc_structure

(* The canonical instance of a query: variables frozen into fresh
   constants.  The substitution records the freezing. *)
let frozen_instance (q : Cq.t) =
  let atoms, frz = Cq.freeze q in
  let inst = Instance.of_atoms atoms in
  (inst, frz)

(* The structural decision, witness included: a satisfying binding of
   [general]'s body over the frozen instance of [specific], read back as
   a substitution into [specific]'s terms (frozen constants thawed to
   the variables they froze). *)
let subsumes_core ?engine ~(general : Cq.t) (specific : Cq.t) =
  if List.length (Cq.answer general) <> List.length (Cq.answer specific)
  then (false, None)
  else begin
    let inst, frz = frozen_instance specific in
    let init =
      List.fold_left2
        (fun acc xg xs ->
          match Subst.find_opt xs frz with
          | Some (Term.Cst c) -> (
              match Instance.const_opt inst c with
              | Some id -> Smap.add xg id acc
              | None -> acc)
          | _ -> acc)
        Smap.empty (Cq.answer general) (Cq.answer specific)
    in
    match Eval.first_solution ~init ?engine inst (Cq.body general) with
    | None -> (false, None)
    | Some b ->
        let thaw = Hashtbl.create 16 in
        List.iter
          (fun (x, t) ->
            match t with
            | Term.Cst c -> Hashtbl.replace thaw c x
            | Term.Var _ -> ())
          (Subst.bindings frz);
        let w =
          Smap.fold
            (fun v id acc ->
              match Instance.const_name inst id with
              | Some c -> (
                  match Hashtbl.find_opt thaw c with
                  | Some x -> Subst.add v (Term.Var x) acc
                  | None -> Subst.add v (Term.Cst c) acc)
              | None -> acc)
            b Subst.empty
        in
        (true, Some w)
  end

(* The original verdict-only decision, byte for byte: the differential
   oracle must not even change its evaluation shape. *)
let subsumes_structural ?engine ~(general : Cq.t) (specific : Cq.t) =
  if List.length (Cq.answer general) <> List.length (Cq.answer specific) then
    false
  else begin
    let inst, frz = frozen_instance specific in
    let init =
      List.fold_left2
        (fun acc xg xs ->
          match Subst.find_opt xs frz with
          | Some (Term.Cst c) -> (
              match Instance.const_opt inst c with
              | Some id -> Smap.add xg id acc
              | None -> acc)
          | _ -> acc)
        Smap.empty (Cq.answer general) (Cq.answer specific)
    in
    Eval.satisfiable ~init ?engine inst (Cq.body general)
  end

(* A necessary condition for a homomorphism from [general] into the
   frozen body of [specific]: each atom of [general] needs a target atom
   with the same predicate, the same constant wherever [general] has a
   constant, and equal terms wherever [general] repeats a variable.  The
   test is per atom and never counts: homomorphisms need not be
   injective, so e(X,Y), e(Y,Z) maps into e(a,a).  Terms of [specific]
   are compared as [Cq.freeze] would leave them, so the test agrees with
   the structural decision even on a constant that collides with a
   frozen variable name. *)
let shape_rejects ~(general : Cq.t) (specific : Cq.t) =
  let same_frozen t u =
    match (t, u) with
    | Term.Var x, Term.Var y -> String.equal x y
    | Term.Cst c, Term.Cst d -> String.equal c d
    | Term.Var x, Term.Cst c | Term.Cst c, Term.Var x -> Cq.freezes_to x c
  in
  let rec fits seen gs ss =
    match (gs, ss) with
    | [], [] -> true
    | (Term.Cst _ as g) :: gs, s :: ss -> same_frozen g s && fits seen gs ss
    | Term.Var x :: gs, s :: ss -> (
        match List.assoc_opt x seen with
        | Some s' -> same_frozen s s' && fits seen gs ss
        | None -> fits ((x, s) :: seen) gs ss)
    | _ -> false
  in
  let has_target a =
    List.exists
      (fun b ->
        Pred.equal (Atom.pred a) (Atom.pred b)
        && fits [] (Atom.args a) (Atom.args b))
      (Cq.body specific)
  in
  not (List.for_all has_target (Cq.body general))

let m_prefilter_rejects =
  Bddfc_obs.Obs.Metrics.counter "containment.prefilter_rejects"

(* The memo's compute: the shape test, then the homomorphism search. *)
let compute_interned ?engine g s =
  if shape_rejects ~general:g s then begin
    Bddfc_obs.Obs.Metrics.incr m_prefilter_rejects;
    (false, None)
  end
  else subsumes_core ?engine ~general:g s

(* [subsumes ~general ~specific]: does [general] hold whenever [specific]
   does (i.e. specific is contained in general)?  Both must have the same
   answer arity. *)
let subsumes ?engine ?hc ~(general : Cq.t) (specific : Cq.t) =
  let hc = match hc with Some m -> m | None -> Hc.default_mode () in
  match hc with
  | Hc.Structural -> subsumes_structural ?engine ~general specific
  | Hc.Interned ->
      let gid = Hc.intern general in
      let sid = Hc.intern specific in
      fst
        (Hc.memo_subsumes ~general:gid ~specific:sid
           (compute_interned ?engine))

(* [subsumes], also returning the witness homomorphism (general's
   variables into specific's terms) when the verdict is positive.  The
   interned path caches witnesses in the canonical namespaces and
   translates through the two renamings. *)
let subsumes_witness ?engine ?hc ~(general : Cq.t) (specific : Cq.t) =
  let hc = match hc with Some m -> m | None -> Hc.default_mode () in
  match hc with
  | Hc.Structural -> subsumes_core ?engine ~general specific
  | Hc.Interned ->
      let gid, ren_g = Hc.intern_renamed general in
      let sid, ren_s = Hc.intern_renamed specific in
      let verdict, w_canon =
        Hc.memo_subsumes ~general:gid ~specific:sid
          (compute_interned ?engine)
      in
      let w =
        Option.map
          (fun wc ->
            let inv_s = List.map (fun (o, c) -> (c, o)) ren_s in
            List.fold_left
              (fun acc (xo, xc) ->
                match Subst.find_opt xc wc with
                | Some (Term.Var v) ->
                    let v' =
                      match List.assoc_opt v inv_s with
                      | Some o -> o
                      | None -> v
                    in
                    Subst.add xo (Term.Var v') acc
                | Some (Term.Cst c) -> Subst.add xo (Term.Cst c) acc
                | None -> acc)
              Subst.empty ren_g)
          w_canon
      in
      (verdict, w)

let equivalent ?engine ?hc q1 q2 =
  subsumes ?engine ?hc ~general:q1 q2 && subsumes ?engine ?hc ~general:q2 q1

(* Core (minimization) of a CQ: remove atoms whose deletion preserves
   equivalence.  The result is homomorphically equivalent to the input. *)
let minimize ?engine ?hc (q : Cq.t) =
  let removable body a =
    let body' = List.filter (fun x -> x != a) body in
    if body' = [] then false
    else
      let keep_answers =
        List.for_all
          (fun x -> Cq.SS.mem x (Atom.vars_of_atoms body'))
          (Cq.answer q)
      in
      keep_answers
      && subsumes ?engine ?hc ~general:q (Cq.make ~answer:(Cq.answer q) body')
  in
  let rec go body =
    match List.find_opt (removable body) body with
    | Some a -> go (List.filter (fun x -> x != a) body)
    | None -> body
  in
  Cq.make ~answer:(Cq.answer q) (go (Cq.body q))

(* UCQ-level subsumption pruning: keep only maximal disjuncts. *)
let prune_ucq ?engine ?hc (qs : Cq.t list) =
  let rec go kept = function
    | [] -> List.rev kept
    | q :: rest ->
        let dominated =
          List.exists (fun q' -> subsumes ?engine ?hc ~general:q' q) kept
          || List.exists (fun q' -> subsumes ?engine ?hc ~general:q' q) rest
        in
        if dominated then go kept rest else go (q :: kept) rest
  in
  go [] qs
