(** Syntactic unification and matching for function-free atoms. *)

val terms : Term.t -> Term.t -> Subst.t option
(** Most general unifier of two terms, as a triangular substitution.  Use {!Subst.resolve_term} (or {!solved}) to read
    bindings back. *)

val atoms : ?init:Subst.t -> Atom.t -> Atom.t -> Subst.t option
(** Triangular mgu of two atoms ([None] on clash). *)

val solved : Subst.t -> Subst.t
(** Fully resolve a triangular substitution into an idempotent one. *)

val mgu_atoms : Atom.t -> Atom.t -> Subst.t option
(** Idempotent mgu of two atoms. *)

val match_atom : pattern:Atom.t -> target:Atom.t -> Subst.t option
(** One-way matching: binds only variables of [pattern]. *)
