(** The existential k-pebble game (Kolaitis–Vardi).

    Duplicator wins from [(A, a)] to [(B, b)] iff every sentence of the
    k-variable existential-positive *infinitary* logic true at [(A, a)]
    holds at [(B, b)] — strictly stronger than preservation of k-variable
    conjunctive queries (decided exactly by {!Ptypes}): a Duplicator win
    implies CQ-type inclusion, not conversely.  Kept as a classical tool
    (k-consistency / Datalog width) and as a sound lower bound for
    {!Ptypes}. *)

open Bddfc_structure

exception Too_large of int

val ptp_leq :
  ?budget:int ->
  vars:int ->
  Instance.t -> Element.id option ->
  Instance.t -> Element.id option -> bool
(** Duplicator wins the existential [vars]-pebble game, started on the
    anchored pair when given.
    @raise Too_large when the partial-homomorphism family exceeds the
    budget (default 2,000,000). *)

val ptp_equal :
  ?budget:int -> vars:int ->
  Instance.t -> Element.id -> Instance.t -> Element.id -> bool

