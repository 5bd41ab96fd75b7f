(** Conjunctive-query containment via canonical (frozen) instances.

    Every decision takes an [?hc] switch ({!Hc.mode}, default
    {!Hc.default_mode}): [Interned] routes the pair through the
    hash-consed unique table and the [(id, id)] verdict memo, [Structural]
    is the original uncached code — the differential oracle the fuzzing
    battery compares against. *)

open Bddfc_logic

val shape_rejects : general:Cq.t -> Cq.t -> bool
(** The atom-shape prefilter of the interned path: [true] only when no
    homomorphism from [general] into the frozen body of [specific] can
    exist, because some atom of [general] has no atom of [specific] with
    the same predicate, the same constants at [general]'s constant
    positions and equal terms wherever [general] repeats a variable.
    Sound by construction ([true] implies {!subsumes} is [false]); it
    never counts atoms, since homomorphisms need not be injective.
    Rejections inside the memo charge [containment.prefilter_rejects]. *)

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
