(** Binary-signature view of a structure as an edge-labelled digraph
    (Section 2.7 of the paper).  The view is a snapshot: it does not
    follow later mutation of the instance. *)

open Bddfc_logic

type edge = { label : Pred.t; src : Element.id; dst : Element.id }
type t

val make : Instance.t -> t
val instance : t -> Instance.t
val size : t -> int
val out_edges : t -> Element.id -> (Pred.t * Element.id) list
val in_edges : t -> Element.id -> (Pred.t * Element.id) list
val unary_labels : t -> Element.id -> Pred.t list
val out_degree : t -> Element.id -> int
val in_degree : t -> Element.id -> int
val degree : t -> Element.id -> int
val max_degree : t -> int
val edges : t -> edge list

val pred_set : t -> Element.id -> Element.Id_set.t
(** P(e) of Definition 10: [{e}] for constants, otherwise [e] plus its
    non-constant direct predecessors. *)

val pred_set_k : t -> int -> Element.id -> Element.Id_set.t
(** [pred_set_k g k e] applies P k more times on top of P(e): the
    elements within k + 1 steps of P from e, so [k = 0] is P(e) itself.
    That is P^(k+1)(e), one hop more than the k-fold iteration P^k; the
    natural coloring's hue conflicts for parameter m are
    [pred_set_k g m e] minus e. *)

val has_directed_cycle_upto : t -> int -> bool

val topo_order : t -> Element.id list option
(** Topological order of the non-constant part; [None] if cyclic. *)

val topo_sort :
  int ->
  relevant:(Element.id -> bool) ->
  iter_succ:(Element.id -> (Element.id -> unit) -> unit) ->
  Element.id array option
(** Kahn's algorithm over the elements [0, n) that [relevant] keeps:
    sources in id order, then a FIFO queue, each element's successors in
    [iter_succ] order ([iter_succ] must only report kept elements).
    [None] if they have a directed cycle.  {!topo_order} is this over
    the nulls and the graph's edges. *)

val ball : t -> Element.id -> int -> Element.Id_set.t
(** Undirected ball of the given radius around an element, inclusive. *)
