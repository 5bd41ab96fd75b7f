(* "Converging to the Chase" (Section 2.1, Remark 2, Lemma 11).

   The paper's deepest trick builds not one finite structure but the whole
   sequence M_1(C-bar), M_2(C-bar), ... and argues about queries true in
   *cofinally many* members: if a query is gained by every quotient then
   one fixed counterexample query exists (Remark 2), and the
   normalization of Lemma 11 trades it for a smaller one.

   This module materializes the sequence for a finite prefix and reports,
   per query of a candidate family, the set of depths at which it is
   gained — the experimental signature that separates conservative
   colorings (gains die out as n grows) from hopeless ones like total
   orders (some query is gained at every n). *)

open Bddfc_logic
open Bddfc_structure
open Bddfc_hom

type point = {
  n : int;
  quotient_size : int;
  gained : (Cq.t * string) list; (* queries gained at some element *)
}

type trace = {
  base : Instance.t;
  points : point list; (* by increasing n *)
}

(* The quotient sequence M_n(C-bar) for n = 1..max_n, with gain-tracking
   for the supplied (query, free-variable) family. *)
let sequence ?(mode = Refine.Backward) ?eval ~max_n (coloring : Coloring.t)
    queries =
  let base = Coloring.uncolor coloring.Coloring.colored in
  let g = Bgraph.make coloring.Coloring.colored in
  let points =
    List.init max_n (fun i ->
        let n = i + 1 in
        let r = Refine.compute ~mode ~depth:n g in
        let qt = Quotient.of_refinement coloring.Coloring.colored r in
        let quotient_base = Coloring.uncolor qt.Quotient.quotient in
        let gained =
          List.filter
            (fun (query, y) ->
              List.exists
                (fun e ->
                  Eval.holds_at ?engine:eval quotient_base query y
                    (Quotient.project qt e)
                  && not (Eval.holds_at ?engine:eval base query y e))
                (Instance.elements base))
            queries
        in
        {
          n;
          quotient_size = Instance.num_elements qt.Quotient.quotient;
          gained;
        })
  in
  { base; points }

(* Queries gained at *every* depth of the trace: the persistent
   counterexamples of Remark 2.  An empty result over a long enough trace
   is the experimental signature of conservativity. *)
let persistent trace =
  match trace.points with
  | [] -> []
  | first :: rest ->
      List.filter
        (fun (q, y) ->
          List.for_all
            (fun p -> List.exists (fun (q', y') -> Cq.equal q q' && y = y') p.gained)
            rest)
        first.gained

(* A default query family over a binary signature: small directed paths,
   loops and short cycles anchored at the free variable — the shapes that
   Lemmas 8 and 9 analyze. *)
let default_queries signature_preds =
  let binaries =
    List.filter Pred.is_binary signature_preds
  in
  List.concat_map
    (fun p ->
      let e args = Atom.make p (List.map Term.var args) in
      [ (* a self-loop: the Example 3 failure shape *)
        (Cq.make ~answer:[ "Y" ] [ e [ "Y"; "Y" ] ], "Y");
        (* in- and out-edges: the 2-variable types *)
        (Cq.make ~answer:[ "Y" ] [ e [ "X"; "Y" ] ], "Y");
        (Cq.make ~answer:[ "Y" ] [ e [ "Y"; "X" ] ], "Y");
        (* a 2-cycle through the anchor *)
        (Cq.make ~answer:[ "Y" ] [ e [ "Y"; "X" ]; e [ "X"; "Y" ] ], "Y");
        (* an incoming path of length 2: depth visibility *)
        (Cq.make ~answer:[ "Y" ] [ e [ "X1"; "X2" ]; e [ "X2"; "Y" ] ], "Y");
        (* a 3-cycle through the anchor: the Example 1 trigger shape *)
        ( Cq.make ~answer:[ "Y" ]
            [ e [ "Y"; "X1" ]; e [ "X1"; "X2" ]; e [ "X2"; "Y" ] ],
          "Y" );
      ])
    binaries

let pp_point ppf p =
  Fmt.pf ppf "n=%d: %d elements, %d gained" p.n p.quotient_size
    (List.length p.gained)
