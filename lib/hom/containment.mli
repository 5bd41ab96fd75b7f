(** Conjunctive-query containment via canonical (frozen) instances.

    Every decision takes an [?hc] switch ({!Hc.mode}, default
    {!Hc.default_mode}): [Interned] routes the pair through the
    hash-consed unique table and the [(id, id)] verdict memo, [Structural]
    is the original uncached code — the differential oracle the fuzzing
    battery compares against.

    Under [Interned] every memo miss first tests a {e signature}: a
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
    injective ([e(X,Y), e(Y,Z)] maps into [e(a,a)]).  Rejections inside
    the memo's compute charge [containment.prefilter_rejects].

    The rewriting loop holds {!prepared} queries instead, so the test
    runs before the memo is consulted and each query's frozen instance
    is built once. *)

open Bddfc_logic

val subsumes :
  ?engine:Eval.engine -> ?hc:Hc.mode -> general:Cq.t -> Cq.t -> bool
(** [subsumes ~general specific]: whenever [specific] holds, so does
    [general] — i.e. [specific] is contained in [general].  Answer arities
    must match; answer variables correspond positionally. *)

val subsumes_witness :
  ?engine:Eval.engine -> ?hc:Hc.mode -> general:Cq.t -> Cq.t ->
  bool * Subst.t option
(** {!subsumes}, plus the witness homomorphism on a positive verdict:
    a substitution of [general]'s variables by terms of [specific] such
    that every atom of [general]'s body lands in [specific]'s body (and
    answer variables correspond positionally).  The interned path caches
    witnesses by id pair and translates them back through the canonical
    renamings. *)

val equivalent : ?engine:Eval.engine -> ?hc:Hc.mode -> Cq.t -> Cq.t -> bool

val minimize : ?engine:Eval.engine -> ?hc:Hc.mode -> Cq.t -> Cq.t
(** Remove redundant atoms; the result is equivalent to the input (the
    query core up to atom deletion). *)

val prune_ucq : ?engine:Eval.engine -> ?hc:Hc.mode -> Cq.t list -> Cq.t list
(** Drop disjuncts contained in another disjunct. *)

(** {1 Prepared queries} *)

type prepared
(** A query prepared once for many containment tests: its {!Hc} id, its
    signature, and the frozen instance of its canonical representative,
    each built on first use and kept with the value. *)

val prepare : ?hc:Hc.mode -> Cq.t -> prepared
(** Interns the query under [Interned]; under [Structural] it prepares
    nothing, and {!prepared_subsumes} runs the structural oracle. *)

val query : prepared -> Cq.t
(** The query as given to {!prepare}. *)

val signature : prepared -> int array * int array
(** [(needs, hosts)] of the canonical representative, each sorted and
    duplicate-free.  Shape features are the codes [>= 0], join features
    the codes [< 0]. *)

val rejects : general:prepared -> prepared -> bool
(** [true] when the needs of [general] are not among the hosts of the
    specific side: no homomorphism exists, so {!subsumes} is [false]. *)

val prepared_subsumes :
  ?engine:Eval.engine -> general:prepared -> prepared -> bool
(** {!subsumes} on prepared queries, under the mode the specific side
    was prepared in.  Under [Interned], a pair that {!rejects}
    charges [containment.index_rejects] and never reaches the memo;
    every other pair is one memo lookup, and a miss searches the
    specific side's kept frozen instance. *)
