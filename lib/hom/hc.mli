(** Hash-consed canonical-query store and containment memo cache.

    The BDD-package trick applied to conjunctive queries: a unique table
    interns α-canonicalized CQs (and their atoms) into a global node
    store, so structural equality becomes id equality, and a compute
    cache keys containment verdicts — with their witness homomorphisms —
    on [(id, id)] pairs.  {!Containment}, {!Ptypes}, the rewriting loop
    and the pipeline's quotient checks thread a {!mode} switch: the
    interned path consults the caches, the structural path is the
    original code, retained verbatim as the differential oracle.

    Canonicalization renames every variable to ["_hc<k>"] by first
    occurrence (answer variables first, then body atoms left to right)
    and strips source locations, so α-equivalent queries — same atom
    order modulo a variable renaming — intern to the same node.  The
    verdicts the caches store are invariant under exactly that
    equivalence, which is the coherence argument (DESIGN.md §13).

    The store is process-global and unsynchronized, like the {!Plan}
    cache: touch it from one domain only.  {!reset} drops
    everything — the [serve] warm-session eviction hook, and the
    re-intern-from-empty point the obs tests pivot on.  It is the only
    process-wide containment state: signatures and frozen instances
    live in {!Containment.prepared} values, for as long as their
    holder keeps them. *)

open Bddfc_logic
open Bddfc_structure

type mode =
  | Interned (** unique table + memo caches (default) *)
  | Structural (** the original structural code paths (differential oracle) *)

val mode_tag : mode -> string
(** ["interned"] / ["structural"] — the CLI and env spelling. *)

val default_mode : unit -> mode
(** [Interned], unless the environment sets [BDDFC_TEST_HC=structural]
    (the CI differential lane).  Read once at first use. *)

(** {1 The unique table} *)

val canonicalize : Cq.t -> Cq.t * (string * string) list
(** α-canonical form: every variable renamed to ["_hc<k>"] by first
    occurrence (answer first, then body), locations stripped.  Returns
    the renaming as [(original, canonical)] pairs.  Total and injective,
    so the result is α-equivalent to the input whatever the input's
    variable names. *)

val intern_atom : Atom.t -> int
(** Intern one atom (as given — no renaming).  Equal atoms, {e including}
    atoms differing only in {!Loc.t}, share an id; the hash folds over
    every argument (the PR 5 [Fact.hash] full-arity discipline). *)

val intern : Cq.t -> int
(** Canonicalize and intern: structurally equal — and α-equivalent —
    queries return the same id; distinct ids imply structurally distinct
    canonical forms. *)

val intern_renamed : Cq.t -> int * (string * string) list
(** {!intern}, also returning the canonicalizing renaming (needed to
    translate witnesses and anchors into the canonical namespace). *)

val node : int -> Cq.t
(** The canonical representative of an interned id.
    @raise Not_found on an id the store never issued (or after {!reset}). *)

val same : Cq.t -> Cq.t -> bool
(** Id equality of the interned forms: α-equivalence with the same body
    atom order. *)

val store_size : unit -> int * int
(** [(atoms, cqs)] currently interned. *)

(** {1 The containment memo}

    Verdicts are computed on canonical representatives, so a cached
    entry is correct for every α-variant pair mapping to the same ids
    (containment is invariant under variable renaming).  Witnesses are
    stored in the canonical namespaces; {!Containment.subsumes_witness}
    translates them back. *)

val memo_subsumes :
  general:int -> specific:int ->
  (Cq.t -> Cq.t -> bool * Subst.t option) ->
  bool * Subst.t option
(** [memo_subsumes ~general ~specific compute]: the cached verdict for
    the id pair, or [compute g s] on the canonical representatives,
    stored and returned.  Charges [containment.memo_lookups] /
    [containment.memo_hits].  Pairs {!Containment.prepared_subsumes}
    settles by signature never get here. *)

val memo_entries : unit -> ((int * int) * (bool * Subst.t option)) list
(** Every cached [(general, specific)] verdict — the replay surface of
    the memo-coherence test suite. *)

(** {1 The evaluation memo}

    Ground query evaluation ([Eval.satisfiable] over a full, unwindowed
    instance) keyed by [(Instance.token, Instance.version, cq id,
    anchor bindings)]: the version stamp makes staleness impossible —
    any mutation of the instance changes the key.  Used by {!Ptypes}
    inclusion and [Converge], where the same canonical queries are
    evaluated against the same fixed structures many times over. *)

val holds_memo :
  ?engine:Eval.engine ->
  Instance.t -> init:(string * Element.id) list -> Cq.t -> bool
(** [Eval.satisfiable ~init inst (Cq.body q)], memoized.  [init] binds
    variables of [q] to elements of [inst] (entries for variables not in
    the body are inert, exactly as in [Eval]). *)

(** {1 Lifecycle} *)

val reset : unit -> unit
(** Drop the unique table and both memo caches and zero the [hc.nodes]
    gauge (bumping [hc.resets]).  Interned ids issued before the reset
    are dead.  The [serve] eviction hook. *)
