(** Finite relational structures ("database instances").

    The store is mutable and dense.  One fact table maps every fact to
    its birth round (duplicate detection and {!fact_birth}); every read
    goes through {e buckets}: the facts of a predicate (found by its
    interned {!Pred.id}), and the facts of a (predicate, position,
    element).  A bucket keeps its facts and their births in parallel
    arrays in arrival order, so reads are newest first, windowed reads
    are two binary searches plus an index loop, and {!copy} clones
    buckets instead of re-inserting facts.  Constants are interned by
    name; labelled nulls carry provenance for skeleton extraction. *)

open Bddfc_logic

type t

val create : ?capacity:int -> unit -> t

(** {1 Elements} *)

val const : t -> string -> Element.id
(** Intern a constant: the same name always yields the same id. *)

val const_opt : t -> string -> Element.id option
val fresh_null : t -> birth:int -> rule:string -> parent:Element.id option -> Element.id
val info : t -> Element.id -> Element.info
val is_const : t -> Element.id -> bool
val is_null : t -> Element.id -> bool
val const_name : t -> Element.id -> string option
val parent : t -> Element.id -> Element.id option
val birth : t -> Element.id -> int
val num_elements : t -> int
val elements : t -> Element.id list
val constants : t -> Element.id list

(** {1 Facts} *)

val mem_fact : t -> Fact.t -> bool

val add_fact : ?birth:int -> t -> Fact.t -> bool
(** Returns [false] when the fact was already present (its recorded birth
    is then left untouched).  [birth] (default 0) stamps the chase round
    the fact was derived in; the semi-naive engine relies on births being
    non-decreasing in insertion order for its delta windows (violating
    that is safe but demotes the windows to full filters).
    @raise Invalid_argument on an unknown element id. *)

val remove_facts : t -> Fact.t list -> int
(** Batch removal (the retraction side of incremental maintenance):
    facts not present are ignored, duplicates count once; returns the
    number of facts actually removed.  Only the index buckets a removed
    fact touches are rebuilt, preserving arrival order — so a
    birth-monotone instance stays monotone, and {!max_fact_birth}
    remains a sound upper bound.  Elements (including constants that no
    remaining fact mentions) are never reclaimed, and {!preds} keeps
    every predicate ever seen: orphaned ids and empty predicates are
    harmless, while keeping ids stable across removals. *)

val num_facts : t -> int
val facts : t -> Fact.t list
val iter_facts : (Fact.t -> unit) -> t -> unit
val facts_with_pred : t -> Pred.t -> Fact.t list
(** A fresh list, newest first.  Hot paths iterate
    ({!iter_with_pred_window}) or count ({!card_with_pred}) instead. *)

val facts_with_arg : t -> Pred.t -> int -> Element.id -> Fact.t list

val card_with_pred : t -> Pred.t -> int
(** [List.length (facts_with_pred inst p)] in O(1): every index bucket
    carries its size, so most-constrained-first join scoring never
    materializes a candidate list. *)

val card_with_arg : t -> Pred.t -> int -> Element.id -> int
(** [List.length (facts_with_arg inst p pos id)] in O(1). *)

val card_with_pred_window : t -> Pred.t -> since:int -> upto:int -> int
(** Exact count of the bucket's facts with birth in [\[since, upto)]
    ([max_int] = no upper bound): two binary searches over the bucket's
    birth array — no walk, no allocation.  If the monotone-birth
    invariant was ever broken this degrades to the whole-bucket size (an
    upper bound, which join scoring tolerates). *)

val card_with_arg_window :
  t -> Pred.t -> int -> Element.id -> since:int -> upto:int -> int

val preds : t -> Pred.Set.t
val signature : t -> Signature.t

(** {1 Birth rounds and delta views}

    Every fact carries the chase round of its first derivation (0 for
    base facts).  The windowed accessors restrict an index list to births
    in [\[since, upto)]; on a birth-monotone instance (the chase's case)
    they cost time proportional to the window, not the instance. *)

val fact_birth : t -> Fact.t -> int
(** The round the fact was first added at (0 if never stamped). *)

val max_fact_birth : t -> int
(** The largest birth stamped so far (0 on a fresh or reset instance). *)

val reset_fact_births : t -> unit
(** Forget all birth stamps: every fact becomes a round-0 base fact, in
    the fact table and in every bucket the windowed reads use.  The
    chase calls this on its working copy so delta windows of a new run
    never see stamps from a previous one. *)

val facts_with_pred_window :
  ?since:int -> ?upto:int -> t -> Pred.t -> Fact.t list
(** [facts_with_pred] restricted to births in [\[since, upto)]. *)

val facts_with_arg_window :
  ?since:int -> ?upto:int -> t -> Pred.t -> int -> Element.id -> Fact.t list
(** [facts_with_arg] restricted to births in [\[since, upto)]. *)

val iter_with_pred_window :
  ?since:int -> ?upto:int -> t -> Pred.t -> (Fact.t -> unit) -> unit
(** Iterate [facts_with_pred_window] without materializing the window —
    the compiled join engine's probe loop.  The bucket is read as it
    stood when the call began: facts the callback adds (the chase
    commits from inside its joins) are not visited. *)

val iter_with_arg_window :
  ?since:int -> ?upto:int -> t -> Pred.t -> int -> Element.id ->
  (Fact.t -> unit) -> unit
(** Iterate [facts_with_arg_window] without materializing the window. *)

(** {1 Conversions} *)

val add_atom : ?birth:int -> t -> Atom.t -> bool
(** Add a ground atom, interning its constants.  [birth] (default 0)
    stamps the fact like {!add_fact} — incremental maintenance inserts
    updates at a fresh round so the semi-naive windows see them as a
    delta.
    @raise Invalid_argument if the atom contains a variable. *)

val of_atoms : Atom.t list -> t
val to_atoms : t -> Atom.t list

(** {1 Restriction and copying} *)

val copy : t -> t
(** A deep copy sharing nothing with the original; element ids coincide
    and fact births (and insertion order) are preserved.  Buckets are
    cloned array by array; no fact is re-hashed.  Like the restrictions,
    the copy's {!preds} are the predicates that still have facts. *)

val restrict_preds : t -> Pred.Set.t -> t
(** The paper's [C |` Sigma]: keep all elements, filter facts. *)

val restrict_elements : t -> Element.Id_set.t -> t
(** The paper's [C |` A]: facts whose arguments all lie in the set. *)

val equal_facts : t -> t -> bool
(** Fact-set equality, constants matched by name, nulls by id — meaningful
    for copies; use {!Canonical} for isomorphism of small structures. *)

val pp : t Fmt.t
val show : t -> string
