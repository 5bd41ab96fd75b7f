(* Very Treelike DAGs (Definitions 10 and 11):

   C is a VTDAG iff its non-constant part is a DAG and
     (1) for each binary R and each non-constant e there is at most one
         non-constant d with R(d, e);
     (2) for each non-constant e the set P(e) of direct predecessors is a
         directed clique: any two members are related by membership of
         each other's predecessor sets. *)

open Bddfc_logic
open Bddfc_structure

type violation =
  | Cyclic
  | Multiple_predecessors of Pred.t * Element.id
  | Not_clique of Element.id * Element.id * Element.id
      (* (e, d, d'): d, d' in P(e) unrelated *)

let check inst =
  let g = Bgraph.make inst in
  let n = Instance.num_elements inst in
  let violations = ref [] in
  if Bgraph.topo_order g = None then violations := [ Cyclic ];
  for e = 0 to n - 1 do
    if Instance.is_null inst e then begin
      (* (1): group incoming non-constant predecessors by relation, keyed
         by (name, arity) so the report order follows the names, not the
         symbols' interning ids *)
      let by_pred = Hashtbl.create 4 in
      List.iter
        (fun (p, d) ->
          if Instance.is_null inst d then begin
            let k = (Pred.name p, Pred.arity p) in
            let ds =
              Option.fold ~none:[] ~some:snd (Hashtbl.find_opt by_pred k)
            in
            Hashtbl.replace by_pred k (p, d :: ds)
          end)
        (Bgraph.in_edges g e);
      Hashtbl.iter
        (fun _ (p, ds) ->
          if List.length (List.sort_uniq compare ds) > 1 then
            violations := Multiple_predecessors (p, e) :: !violations)
        by_pred;
      (* (2): P(e) is a directed clique *)
      let pe = Element.Id_set.elements (Bgraph.pred_set g e) in
      List.iter
        (fun d ->
          List.iter
            (fun d' ->
              if d < d' then begin
                let rel a b = Element.Id_set.mem a (Bgraph.pred_set g b) in
                if not (rel d d' || rel d' d) then
                  violations := Not_clique (e, d, d') :: !violations
              end)
            pe)
        pe
    end
  done;
  !violations

let is_vtdag inst = check inst = []

(* A forest (each null with at most one incoming skeleton edge overall and
   acyclic) is trivially a VTDAG; this cheaper test covers the structures
   produced as chase skeletons of ♠5-normalized theories. *)
let is_forest inst =
  let g = Bgraph.make inst in
  Bgraph.topo_order g <> None
  && List.for_all
       (fun e ->
         (not (Instance.is_null inst e))
         || List.length
              (List.filter
                 (fun (_, d) -> Instance.is_null inst d)
                 (Bgraph.in_edges g e))
            <= 1)
       (Instance.elements inst)

let pp_violation ppf = function
  | Cyclic -> Fmt.string ppf "non-constant part has a directed cycle"
  | Multiple_predecessors (p, e) ->
      Fmt.pf ppf "element %d has several non-constant %a-predecessors" e
        Pred.pp p
  | Not_clique (e, d, d') ->
      Fmt.pf ppf "P(%d) is not a clique: %d and %d are unrelated" e d d'
