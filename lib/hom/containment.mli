(** Conjunctive-query containment via canonical (frozen) instances.

    Every decision between two queries takes an [?hc] switch
    ({!Hc.mode}, default {!Hc.default_mode}): [Interned] runs on
    {!prepared} queries, [Structural] is the original code — the
    differential oracle the fuzzing battery compares against.  Neither
    keeps state across calls.  {!minimize} has one path, which the
    tests hold to the original minimization.

    Under [Interned] every pair first tests a {e signature}: a
    necessary condition for a homomorphism from [general] into the
    frozen body of [specific], as two sorted int arrays.
    - {e Needs} (of [general]): per atom its shape — predicate, the
      constants by position, the repeated-variable pattern — and one
      join feature [(p,i,p',j)] for each variable shared between
      position [i] of a [p]-atom and position [j] of a [p']-atom.
    - {e Hosts} (of [specific]): every shape an atom of the frozen body
      satisfies, and every join two occurrences of one frozen term
      satisfy, two positions of one atom included.

    "needs ⊆ hosts" never counts atoms, since homomorphisms need not be
    injective ([e(X,Y), e(Y,Z)] maps into [e(a,a)]).  A pair the test
    settles charges [containment.index_rejects]; every other pair
    charges [containment.searches] and runs the general side's compiled
    body over the specific side's frozen instance.  The rewriting loop
    holds prepared queries, so each query's signature, frozen instance
    and plan are built once. *)

open Bddfc_logic

val subsumes :
  ?engine:Eval.engine -> ?hc:Hc.mode -> general:Cq.t -> Cq.t -> bool
(** [subsumes ~general specific]: whenever [specific] holds, so does
    [general] — i.e. [specific] is contained in [general].  Answer arities
    must match; answer variables correspond positionally. *)

val minimize : ?engine:Eval.engine -> Cq.t -> Cq.t
(** Remove redundant atoms; the result is equivalent to the input (the
    query core up to atom deletion).  One pass over the atoms removes
    each atom whose fact the whole remaining body can do without, in the
    query's frozen instance, built once, by the query's body, compiled
    once.  Each check is one search and charges [containment.searches].
    Bodies of 0 or 1 atoms, and queries with nothing to remove, are
    returned as they are. *)

(** {1 Prepared queries} *)

type prepared
(** A query prepared once for many containment tests: its signature,
    its frozen instance and its compiled body, each built on first use
    from the query as given and kept with the value. *)

val prepare : ?hc:Hc.mode -> Cq.t -> prepared
(** Under [Structural] nothing is ever built, and {!prepared_subsumes}
    runs the structural oracle. *)

val query : prepared -> Cq.t
(** The query as given to {!prepare}. *)

val signature : prepared -> int array * int array
(** [(needs, hosts)], each sorted and duplicate-free.  Shape features
    are the codes [>= 0], join features the codes [< 0]. *)

val rejects : general:prepared -> prepared -> bool
(** [true] when the answer arities differ or the needs of [general] are
    not among the hosts of the specific side: no homomorphism exists, so
    {!subsumes} is [false]. *)

val prepared_subsumes :
  ?engine:Eval.engine -> general:prepared -> prepared -> bool
(** {!subsumes} on prepared queries, under the mode the specific side
    was prepared in.  Under [Interned], a pair that {!rejects} charges
    [containment.index_rejects]; every other pair charges
    [containment.searches] and runs the general side's kept plan over
    the specific side's kept frozen instance. *)
