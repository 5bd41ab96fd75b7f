(** Parser for the Prolog-flavoured surface syntax of Datalog-exists
    programs.  Variables start with an uppercase letter or ['_'];
    lowercase identifiers are predicates and constants.  ['%'] starts a
    line comment. *)

type program = {
  rules : Rule.t list;
  facts : Atom.t list;
  queries : Cq.t list;
}

exception Parse_error of { loc : Loc.t option; msg : string }
(** [loc] is the position of the offending token, when one is known. *)

val error_message : exn -> string
(** Render a {!Parse_error} as ["LINE:COL: message"] (or just the message
    when no location is known).
    @raise Invalid_argument on any other exception. *)

val parse_program : string -> program

val parse_rule : string -> Rule.t
(** Parse a single rule, e.g. ["e(X,Y) -> exists Z. e(Y,Z)."]. *)

val parse_theory : string -> Theory.t
(** Parse all rules of a program (facts and queries must be absent or are
    ignored). *)

val parse_query : string -> Cq.t
(** Parse a single query, e.g. ["? e(X,Y), u(Y,Y)."]. *)

val parse_atoms : string -> Atom.t list
(** Parse a list of ground facts. *)
