(* Quotient structures M_n(C) (Definition 5): elements are equivalence
   classes, and relations are the minimal ones making the quotient map a
   homomorphism — i.e. the projections of the facts of C.

   A class containing a constant is necessarily a singleton (Remark 1,
   guaranteed by the refinement's initial partition and by the exact
   equivalence), and its quotient element *is* that constant, so that the
   quotient interprets the signature's constants. *)

open Bddfc_structure

type t = {
  source : Instance.t;
  quotient : Instance.t;
  cls : int array; (* source element -> class id *)
  repr : Element.id array; (* class id -> quotient element *)
  members : Element.id list array; (* class id -> source elements *)
}

let make source (cls : int array) ~num_classes =
  let n = Instance.num_elements source in
  let members = Array.make (max num_classes 1) [] in
  for e = n - 1 downto 0 do
    members.(cls.(e)) <- e :: members.(cls.(e))
  done;
  let quotient = Instance.create ~capacity:num_classes () in
  let repr = Array.make (max num_classes 1) (-1) in
  for c = 0 to num_classes - 1 do
    let const =
      List.find_map (fun e -> Instance.const_name source e) members.(c)
    in
    let id =
      match const with
      | Some name ->
          if List.length members.(c) > 1 then
            invalid_arg
              "Quotient.make: a constant was identified with another element";
          Instance.const quotient name
      | None -> Instance.fresh_null quotient ~birth:0 ~rule:"quotient" ~parent:None
    in
    repr.(c) <- id
  done;
  Instance.iter_facts
    (fun f ->
      let args = Array.map (fun e -> repr.(cls.(e))) (Fact.args f) in
      ignore (Instance.add_fact quotient (Fact.make (Fact.pred f) args)))
    source;
  { source; quotient; cls; repr; members }

(* The projection q_n. *)
let project t e = t.repr.(t.cls.(e))

let of_refinement source (r : Refine.t) =
  make source r.Refine.cls ~num_classes:r.Refine.num_classes
