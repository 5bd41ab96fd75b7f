(** Compiled join plans: a CQ/rule body compiled into an
    integer-register program — variables numbered into an
    [Element.id array] environment, constants pre-resolved per execution,
    per-atom access paths chosen by O(1) index cardinalities.

    Execution enumerates exactly the solutions of the interpreted join in
    [Eval] (probe order may differ: scoring reads windowed bucket
    cardinalities by binary search, and ties can break differently) and
    counts probes through the same [eval.join_probes] registry handle.
    Plans are instance-independent, and nothing here keeps one: a plan
    lives as long as its holder, usually an [Eval.prepared] (DESIGN.md
    §9 says who holds which).  Every compile counts
    [eval.plans_compiled]. *)

open Bddfc_logic
open Bddfc_structure

type t

val compile : Atom.t list -> t
(** Compile a body.  Each call compiles afresh and counts
    [eval.plans_compiled]. *)

val nvars : t -> int
val var_name : t -> int -> string
val reg_of_var : t -> string -> int option

val exec :
  ?init:Element.id Smap.t -> ?upto:int -> Instance.t -> t ->
  (Element.id array -> unit) -> unit
(** Enumerate solutions, all atoms windowed to births [\[0, upto)] (full
    window when absent).  The yielded array is the live register
    environment — read it during the callback, do not retain it. *)

val exec_windowed :
  ?init:Element.id Smap.t -> wsince:int array -> wupto:int array ->
  Instance.t -> t -> (Element.id array -> unit) -> unit
(** Per-atom birth windows [\[wsince.(i), wupto.(i))]; [max_int] as an
    upper bound means unbounded — the semi-naive delta decomposition's
    building block. *)

val exec_filled :
  fill:(int * int) array -> src:Element.id array -> wsince:int array ->
  wupto:int array -> Instance.t -> t -> (Element.id array -> unit) -> unit
(** [exec_windowed] with the registers seeded from another environment:
    each [(dst, s)] of [fill] starts register [dst] at [src.(s)].  The
    chase checks witnesses this way, straight from the body's
    registers. *)
