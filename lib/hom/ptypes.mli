(** Exact decision of positive-type inclusion and equality
    (Definitions 3 and 4 of the paper).

    [ptp_k(A, a)] is the set of conjunctive queries with at most [k]
    variables in total (the distinguished free variable included;
    constants and [y = c] equality atoms allowed) true at [(A, a)].
    Inclusion is decided by checking, for every at-most-[k]-element set
    [V] of non-constants containing the anchor, that the canonical query
    of [A |` (V u constants)] holds at the other side — exact, and
    polynomial for fixed [k].  Each canonical query is one
    [Eval.satisfiable] call; nothing is memoized across calls.  The
    scalable approximation is {!Bddfc_ptp.Refine}. *)

open Bddfc_structure

val ptp_leq :
  ?engine:Eval.engine ->
  vars:int ->
  Instance.t -> Element.id option ->
  Instance.t -> Element.id option -> bool
(** [ptp_leq ~vars a x b y]: every CQ with at most [vars] variables true
    at [(a, x)] holds at [(b, y)].  Pass [None] on both sides for the
    Boolean (un-anchored) variant.
    @raise Invalid_argument if exactly one side is anchored. *)

val ptp_equal :
  ?engine:Eval.engine ->
  vars:int -> Instance.t -> Element.id -> Instance.t -> Element.id -> bool

val equiv :
  ?engine:Eval.engine -> vars:int -> Instance.t ->
  Element.id -> Element.id -> bool
(** Definition 4: the equivalence [d ~n e] within one structure. *)

val classes :
  ?engine:Eval.engine -> vars:int -> Instance.t -> int array * int
(** The full partition of a small structure under {!equiv}: class index
    per element, and the number of classes. *)
