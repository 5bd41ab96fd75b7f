(** Homomorphisms between instances.  Constants are rigid (matched by
    name); labelled nulls behave as variables. *)

open Bddfc_structure

type mapping = Element.id Element.Id_map.t

val find :
  ?fixed:mapping -> ?engine:Eval.engine -> Instance.t -> Instance.t ->
  mapping option
(** A homomorphism from the first instance into the second, extending the
    [fixed] null images. *)

val exists : ?engine:Eval.engine -> Instance.t -> Instance.t -> bool
val is_homomorphism : Instance.t -> Instance.t -> mapping -> bool

val image : Instance.t -> Instance.t -> mapping -> Instance.t
(** The homomorphic image of the source inside a fresh instance. *)

val core : Instance.t -> Instance.t
(** The core of a small instance (exponential worst case). *)
