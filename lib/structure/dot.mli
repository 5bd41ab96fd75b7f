(** GraphViz (DOT) export of binary structures: constants as boxes, nulls
    as ellipses, binary facts as labelled edges, colors ({!Color}
    predicates) as fill colors. *)

val to_string : Instance.t -> string
val to_file : string -> Instance.t -> unit
