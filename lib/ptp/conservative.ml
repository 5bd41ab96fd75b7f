(* Conservativity (Definitions 8 and 9): a coloring C-bar of C is
   n-conservative up to size m when the quotient map q_n into M_n(C-bar)
   preserves the positive m-types over the *base* signature Sigma of every
   element.

   Two quotient constructions are offered:
     - [quotient_exact]: M_n(C-bar) literally by Definition 5, classes
       computed with the exact positive-type equivalence (Ptypes);
     - [quotient_refine]: the scalable refinement approximation.

   The preservation check itself ([check_exact]) is exact in both cases:
   it decides ptp_m equality between each element and its projection with
   Bddfc_hom.Ptypes. *)

open Bddfc_structure
open Bddfc_hom

type check = {
  conservative : bool;
  failures : (Element.id * [ `Gained | `Lost ]) list;
      (* elements whose m-type changed: [`Gained] = the projection
         satisfies a query the original does not (the harmful direction);
         [`Lost] = the projection lost a query (possible only when the
         class equivalence was too coarse, since q_n is a homomorphism). *)
}

(* M_n(C-bar) by Definition 5: quotient by exact positive-n-type equality
   over the *colored* signature. *)
let quotient_exact ?hc ~n (coloring : Coloring.t) =
  let colored = coloring.Coloring.colored in
  let cls, num_classes = Ptypes.classes ?hc ~vars:n colored in
  Quotient.make colored cls ~num_classes

(* The refinement approximation of the same quotient. *)
let quotient_refine ~n (coloring : Coloring.t) =
  let g = Bgraph.make coloring.Coloring.colored in
  let r = Refine.compute ~mode:Refine.Bidirectional ~depth:n g in
  Quotient.of_refinement coloring.Coloring.colored r

(* Exact conservativity check of a given quotient: positive m-types over
   the base signature (colors stripped) are preserved pointwise. *)
let check_quotient ?hc ~m inst (q : Quotient.t) =
  let base = Coloring.uncolor inst in
  let quotient_base = Coloring.uncolor q.Quotient.quotient in
  let failures = ref [] in
  List.iter
    (fun e ->
      let img = Quotient.project q e in
      let gained =
        not
          (Ptypes.ptp_leq ?hc ~vars:m quotient_base (Some img) base (Some e))
      in
      let lost =
        not
          (Ptypes.ptp_leq ?hc ~vars:m base (Some e) quotient_base (Some img))
      in
      if gained then failures := (e, `Gained) :: !failures;
      if lost then failures := (e, `Lost) :: !failures)
    (Instance.elements inst);
  { conservative = !failures = []; failures = !failures }

let check_exact ?hc ~m ~n inst (coloring : Coloring.t) =
  check_quotient ?hc ~m inst (quotient_exact ?hc ~n coloring)

let check_refine ?hc ~m ~n inst (coloring : Coloring.t) =
  check_quotient ?hc ~m inst (quotient_refine ~n coloring)

(* Search the least n <= max_n making the coloring n-conservative up to m
   (mirroring the existential quantifier of Definition 9). *)
let find_conservative_n ?hc ~m ~max_n inst coloring =
  let rec go n =
    if n > max_n then None
    else if (check_exact ?hc ~m ~n inst coloring).conservative then Some n
    else go (n + 1)
  in
  go 1
