(** Conjunctive-query containment on prepared queries.

    [specific] is contained in [general] iff [general] maps
    homomorphically into the frozen body of [specific], answer variables
    positionally onto answer variables.  There is one path: every
    decision prepares both sides and runs the matcher below.  Nothing is
    kept across calls.  The test suite holds the matcher to an
    independent oracle, which freezes the specific side into an
    [Instance] and evaluates the general side's body over it.

    A prepared query is coded once into ints: per atom a predicate id
    and an int array (variables as registers, constants as negative
    codes), atoms grouped by predicate.  One small matcher over two
    codings — a depth-first search with a register array and a trail —
    decides every pair the signatures let through and every removal
    {!minimize} tries.  Containment never builds an [Instance] or an
    [Eval] plan.

    Every pair first tests a {e signature}: a necessary condition for
    a homomorphism from [general] into the frozen body of [specific], as
    two sorted int arrays.
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
    charges [containment.searches] and runs the matcher.  The rewriting
    loop holds prepared queries, so each query is coded and signed
    once. *)

open Bddfc_logic

val subsumes : general:Cq.t -> Cq.t -> bool
(** [subsumes ~general specific]: whenever [specific] holds, so does
    [general] — i.e. [specific] is contained in [general].  Answer arities
    must match; answer variables correspond positionally. *)

(** {1 Prepared queries} *)

type prepared
(** A query prepared once for many containment tests: its int coding,
    built by {!prepare}, and its signature, built on first use, both
    kept with the value. *)

val prepare : Cq.t -> prepared

val query : prepared -> Cq.t
(** The query as given to {!prepare}. *)

val width : counts:(string -> bool) -> prepared -> int
(** The number of distinct variables of the query's body plus the number
    of its distinct constants that [counts] accepts, read off the
    coding. *)

val signature : prepared -> int array * int array
(** [(needs, hosts)], each sorted and duplicate-free.  Shape features
    are the codes [>= 0], join features the codes [< 0]. *)

val rejects : general:prepared -> prepared -> bool
(** [true] when the answer arities differ or the needs of [general] are
    not among the hosts of the specific side: no homomorphism exists, so
    {!subsumes} is [false]. *)

val prepared_subsumes : general:prepared -> prepared -> bool
(** {!subsumes} on prepared queries.  A pair that {!rejects} charges
    [containment.index_rejects]; every other pair charges
    [containment.searches] and runs the matcher over the two kept
    codings. *)

val minimize : prepared -> prepared
(** Remove redundant atoms; the result is equivalent to the input (the
    query core up to atom deletion), prepared.  One pass over the atoms
    removes each atom the whole query can do without: the matcher maps the query's body into its own atoms with
    that atom masked.  Each such check charges [containment.searches].
    An atom is kept without a check when no other remaining atom has its
    predicate and its constants at its constant positions.  A query with
    nothing to remove, bodies of 0 or 1 atoms included, comes back as
    the value it was given. *)
