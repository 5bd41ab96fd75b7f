(** An independent checker for RUP refutations.

    A clause is an array of non-zero DIMACS literals: [v] asserts
    variable [v], [-v] denies it.  A lemma is a {e reverse unit
    propagation} (RUP) consequence of a clause set when assigning every
    one of its literals false and unit-propagating over the set reaches
    a falsified clause.  A refutation log is a list of lemmas, each RUP
    with respect to the input clauses plus the lemmas before it, that
    ends with the empty clause: it certifies that the clauses have no
    model.

    The checker shares no code with the solver that writes the logs. *)

val check : int array list -> int array list -> bool
(** [check clauses log] accepts exactly when every lemma of [log], in
    order, is RUP with respect to [clauses] and the earlier lemmas, and
    the last lemma is the empty clause. *)
