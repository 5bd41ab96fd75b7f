(** Hash-consed canonical-query store and the evaluation memo.

    The BDD-package trick applied to conjunctive queries: a unique table
    interns α-canonicalized CQs (and their atoms) into a global node
    store, so structural equality becomes id equality, and a compute
    cache keys ground evaluation verdicts on the interned id.  {!Ptypes}
    and [Converge] thread a {!mode} switch: the interned path consults
    the cache, the structural path is the original code, retained
    verbatim as the differential oracle.  Containment takes the same
    switch but keeps no state here: under [Interned] it runs on
    {!Containment.prepared} values, which live as long as their holder
    keeps them.

    Canonicalization renames every variable to ["_hc<k>"] by first
    occurrence (answer variables first, then body atoms left to right)
    and strips source locations, so α-equivalent queries — same atom
    order modulo a variable renaming — intern to the same node.  The
    verdicts the cache stores are invariant under exactly that
    equivalence, which is the coherence argument (DESIGN.md §13).

    The store is process-global and unsynchronized, the only
    process-wide table in this library ({!Plan} keeps none): touch it
    from one domain only.  {!reset} drops
    everything — the re-intern-from-empty point the obs tests pivot
    on. *)

open Bddfc_logic
open Bddfc_structure

type mode =
  | Interned
      (** prepared containment and the evaluation memo (default) *)
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

val node : int -> Cq.t
(** The canonical representative of an interned id.
    @raise Not_found on an id the store never issued (or after {!reset}). *)

val same : Cq.t -> Cq.t -> bool
(** Id equality of the interned forms: α-equivalence with the same body
    atom order. *)

val store_size : unit -> int * int
(** [(atoms, cqs)] currently interned. *)

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
(** Drop the unique table and the evaluation memo and zero the
    [hc.nodes] gauge (bumping [hc.resets]).  Interned ids issued before
    the reset are dead. *)
