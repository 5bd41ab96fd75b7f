(** The ternary reduction (Section 5.2, Theorem 4): wide atoms become
    chains of ternary atoms with named links, "the good old Prolog way".
    Wide existential heads are split into the paper's rule cascade. *)

open Bddfc_logic
open Bddfc_structure

type encoding = {
  theory : Theory.t;
  chain_preds : (Pred.t * Pred.t list) list;
}

val encode : Theory.t -> encoding
val encode_instance : Instance.t -> Instance.t
val encode_query : Cq.t -> Cq.t
