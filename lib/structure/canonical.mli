(** Canonical forms and isomorphism for small substructures, used for the
    lightness component of natural colorings (Definition 14).  The form
    is found by individualization-refinement over the free elements:
    colour refinement, then one branch per member of the first
    non-singleton cell (pruned by twins and by the automorphisms the
    leaves reveal), and the least encoding over the leaves.  Exact, with
    no cap on the number of free elements; rigid structures never
    branch.

    Cost: one refinement round is O(|facts| x arity + n log n) for n free
    elements; with n <= 1 a form is one sort of the facts.  {!key}
    collects the induced facts with one scan of the whole instance;
    {!least_encoding} takes them from the caller. *)

val least_encoding : int -> int array list -> int array
(** [least_encoding n facts]: each fact is [[| pred code; arg codes |]],
    where the pred code determines the arity, codes in [\[0, n)] are the
    free elements and negative codes are fixed.  Every free code must
    occur in some fact.  The result is the least sorted, flattened fact
    list over all relabellings of the free codes: two calls return equal
    arrays iff some bijection of the free codes maps one fact set onto
    the other (duplicates are harmless). *)

module Table : Hashtbl.S with type key = int array
(** Hash tables keyed by int arrays: canonical forms and refinement
    signatures. *)

val key : ?root:Element.id -> Instance.t -> Element.id list -> string
(** A canonical key of the substructure induced by the element list.
    Constants are fixed by name, the optional [root] is distinguished, and
    the remaining elements are canonicalized by {!least_encoding}.  Equal
    keys iff isomorphic (constants by name, root to root); elements that
    no induced fact mentions do not count.  Keys compare within one
    process: which leaf is least depends on the interned predicate ids. *)

val iso_with_roots :
  Instance.t -> Element.id list -> Element.id ->
  Instance.t -> Element.id list -> Element.id -> bool
(** Isomorphism of two small induced substructures mapping root to root. *)

val iso_small :
  Instance.t -> Element.id list -> Instance.t -> Element.id list -> bool
