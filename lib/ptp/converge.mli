(** "Converging to the Chase" (Section 2.1, Remark 2, Lemma 11): the
    sequence M_1(C-bar), M_2(C-bar), ... materialized over a finite
    prefix, with gain-tracking for a query family.  A query gained at
    every depth is a persistent counterexample in the sense of Remark 2;
    gains dying out as n grows is the experimental signature of
    conservativity. *)

open Bddfc_logic
open Bddfc_structure

type point = {
  n : int;
  quotient_size : int;
  gained : (Cq.t * string) list;
}

type trace = {
  base : Instance.t;
  points : point list;
}

val sequence :
  ?mode:Refine.mode -> ?eval:Bddfc_hom.Eval.engine -> max_n:int ->
  Coloring.t -> (Cq.t * string) list -> trace
(** Each gain test is one [Eval.holds_at] call on the quotient and, when
    that holds, one on the base structure; nothing is memoized. *)

val persistent : trace -> (Cq.t * string) list
(** Queries gained at every depth of the trace. *)

val default_queries : Pred.t list -> (Cq.t * string) list
(** Small anchored shapes over the binary predicates: loops, edges,
    2-cycles, depth-2 paths, 3-cycles (the shapes of Lemmas 8/9). *)

val pp_point : point Fmt.t
