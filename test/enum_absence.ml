(* Test-only oracle for Naive.exhaustive_absence: the original 2^k
   enumerator.  It copies the instance and model-checks it once for every
   subset of the candidate facts, trying the subsets in increasing order
   of their bitmask (candidate i is bit i), so its countermodel is the
   one with the least mask.  The library grounds the question once and
   decides it with a propositional solver; the differential tests in
   test_absence.ml hold it to this definition, countermodel for
   countermodel. *)

open Bddfc_budget
open Bddfc_logic
open Bddfc_structure
open Bddfc_hom
open Bddfc_finitemodel

let rec tuples elements k =
  if k = 0 then [ [] ]
  else
    List.concat_map
      (fun e -> List.map (fun t -> e :: t) (tuples elements (k - 1)))
      elements

(* Enumerate every superset of D over D's elements plus [max_extra] fresh
   ones, and test each against the theory and the query. *)
let exhaustive_absence ?budget ?eval ?(max_candidates = 24) ~max_extra
    theory db query =
  let budget = Option.value budget ~default:Budget.unlimited in
  let base = Instance.copy db in
  for i = 1 to max_extra do
    ignore (Instance.fresh_null base ~birth:0 ~rule:"extra" ~parent:None);
    ignore i
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
  let k = List.length candidates in
  if k > max_candidates then Naive.Too_large k
  else begin
    let arr = Array.of_list candidates in
    let total = 1 lsl k in
    let result = ref Naive.No_model in
    (try
       for mask = 0 to total - 1 do
         Budget.check_deadline budget;
         Budget.charge budget Budget.Nodes 1;
         let inst = Instance.copy base in
         for i = 0 to k - 1 do
           if mask land (1 lsl i) <> 0 then ignore (Instance.add_fact inst arr.(i))
         done;
         if
           Model_check.is_model ?eval theory inst
           && not (Eval.holds ?engine:eval inst query)
         then begin
           result := Naive.Counter_model inst;
           raise Exit
         end
       done
     with
    | Exit -> ()
    | Budget.Exhausted r -> result := Naive.Absence_exhausted r);
    !result
  end
