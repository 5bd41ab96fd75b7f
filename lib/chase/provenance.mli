(** Derivation provenance: the chase's trigger stream, filed per fact.
    For every fact, the first rule application that produced it;
    derivation trees; derivation depth (the quantity the BDD property
    bounds, Section 1.1). *)

open Bddfc_budget
open Bddfc_logic
open Bddfc_structure

type reason =
  | Given
  | Derived of { rule : string; round : int; body : Fact.t list }

type t = {
  instance : Instance.t;
  reasons : reason Fact.Table.t;
  rounds : int;
  saturated : bool;
  tripped : Budget.resource option;
      (** which budget stopped the chase, if any *)
}

val recorder :
  unit -> Chase.record * (Instance.t -> reason Fact.Table.t -> Fact.t list)
(** A {!Chase.record} callback that buffers the trigger stream, paired
    with its drain: [drain inst reasons] files each recorded fact's first
    derivation into [reasons] (facts already there keep their reason;
    body constants resolve in [inst], the instance the stream was
    recorded on), empties the buffer and returns the recorded facts in
    commit order. *)

val run :
  ?strategy:Chase.strategy -> ?eval:Bddfc_hom.Eval.engine ->
  ?budget:Budget.t -> ?max_rounds:int -> ?max_elements:int ->
  Theory.t -> Instance.t -> t
(** {!Chase.run} with its trigger stream recorded: same instance, rounds,
    budget accounting and counters as the plain run, under every
    strategy.  Base facts are [Given]. *)

val reason_of : t -> Fact.t -> reason option

type tree =
  | Leaf of Fact.t
  | Node of Fact.t * string * tree list

val explain : ?fuel:int -> t -> Fact.t -> tree option

val depth : t -> Fact.t -> int
(** 0 for given facts, 1 + max over the recorded body otherwise. *)

val max_depth : t -> int
val pp_tree : tree Fmt.t
