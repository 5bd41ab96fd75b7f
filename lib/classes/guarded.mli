(** The Section 5.6 compilation: guarded Datalog-exists programs are
    "binary in disguise".  Parent links F_i, per-rule TGPs E_r/W_r,
    ♠11-style body expansion, and monadization of wide non-TGP atoms with
    synchronization rules.

    Supported inputs (checked; {!Unsupported} otherwise): single-head
    guarded rules, one existential variable per TGD placed last in the
    head with pairwise-distinct variable arguments, argument-order respect
    (step (i) as a check), no constants inside wide atoms. *)

open Bddfc_logic

exception Unsupported of string

type result = {
  theory : Theory.t;
  max_parent_index : int;
  monadic_preds : Pred.t list;
}

val to_binary : Theory.t -> result
(** @raise Unsupported when a precondition fails or the ♠11 expansion of
    one rule exceeds 512 rule copies. *)
