(** FC certificates: a finite model [M |= D, T] with [M |/= Q], re-checked
    from scratch — the soundness anchor of the whole pipeline. *)

open Bddfc_logic
open Bddfc_structure

type t = {
  theory : Theory.t;
  database : Instance.t;
  query : Cq.t;
  model : Instance.t;
}

type issue =
  | Missing_database_fact
  | Rule_violated of Model_check.violation
  | Query_satisfied

val verify : t -> issue list
val is_valid : t -> bool
val pp : t Fmt.t
