(** Canonical forms and isomorphism for small substructures, used for the
    lightness component of natural colorings (Definition 14).  Brute force
    over permutations of the non-pinned elements: exact, and cheap because
    predecessor neighbourhoods are bounded (Lemma 3(iv)).

    Cost: a key renders its induced facts once per permutation, so it
    costs |facts| x |perms| once the facts are in hand.  {!key_of_facts}
    takes them from the caller; {!key} collects them with one scan of the
    whole instance. *)

val key : ?root:Element.id -> Instance.t -> Element.id list -> string
(** A canonical key of the substructure induced by the element list.
    Constants are fixed by name, the optional [root] is distinguished, and
    the remaining elements are canonicalized by minimizing over orderings.
    Equal keys iff isomorphic (constants by name, root to root).
    @raise Invalid_argument with more than 8 free elements. *)

val key_of_facts :
  ?root:Element.id -> Instance.t -> Element.id list -> Fact.t list -> string
(** [key_of_facts ?root inst elts facts] is [key ?root inst elts] when
    [facts] lists the facts of [inst] whose arguments all lie in [elts]
    (in any order; duplicates are harmless).  No instance scan: the
    permutations render [facts] only.
    @raise Invalid_argument with more than 8 free elements. *)

val iso_with_roots :
  Instance.t -> Element.id list -> Element.id ->
  Instance.t -> Element.id list -> Element.id -> bool
(** Isomorphism of two small induced substructures mapping root to root. *)

val iso_small :
  Instance.t -> Element.id list -> Instance.t -> Element.id list -> bool
