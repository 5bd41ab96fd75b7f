(** The normalizations of Section 3.1: hiding the query (♠4) and the TGP
    discipline (♠5), with the Section 5.1 generalization to frontier-one
    heads of any arity. *)

open Bddfc_logic

type hidden = {
  theory : Theory.t;
  query_pred : Pred.t; (** the fresh F of ♠4 *)
}

val hide_query : Theory.t -> Cq.t -> hidden
(** ♠4: add [Q(x, y) -> exists z. F(y, z)].  A finite model of [T, D]
    avoiding [Q] exists iff one of the enriched theory avoiding [F] does.
    @raise Invalid_argument on an empty query. *)

exception Unsupported of string

type split = {
  theory : Theory.t;
  tgps : Pred.t list; (** the fresh tuple generating predicates *)
}

val spade5 : Theory.t -> split
(** ♠5: every existential head becomes [exists z. R'(y, z)] with a fresh
    per-rule TGP plus a datalog back-translation; heads
    [exists z1..zk. Phi(y, z-bar)] with a single frontier variable are
    split per Section 5.1.  A rule whose body has no variables anchors
    its TGPs at a constant of the rule, as {!hide_query} does.
    @raise Unsupported on multi-head rules, heads sharing more than one
    variable with the body, or ground bodies without constants. *)
