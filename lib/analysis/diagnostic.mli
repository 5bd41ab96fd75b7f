(** Structured, located lint diagnostics: a stable code, a severity, the
    source position, a one-line message, and a concrete rendered witness
    (offending atom, dependency cycle, marking trace — never a bare
    boolean). *)

open Bddfc_logic

type severity =
  | Error  (** almost certainly a bug in the program; lint exits 2 *)
  | Warning  (** suspicious but runnable; fatal under [--deny-warnings] *)
  | Info
      (** a class-membership fact with its refutation witness — not a
          defect, the pipeline merely loses the matching fast path *)

type t = {
  code : string;  (** stable kebab-case code, e.g. ["arity-mismatch"] *)
  severity : severity;
  loc : Loc.t;
  message : string;
  witness : string;
}

val v :
  ?loc:Loc.t ->
  code:string ->
  severity:severity ->
  witness:string ->
  ('a, Format.formatter, unit, t) format4 ->
  'a
(** [v ~loc ~code ~severity ~witness fmt ...] builds a diagnostic with a
    formatted message. *)

val compare : t -> t -> int
(** Position, then severity (errors first), then code, then message. *)

val pp_text : file:string -> t Fmt.t
(** ["FILE:3:14: warning[code]: message; witness: ..."]. *)

val pp : t Fmt.t
(** {!pp_text} with a ["-"] file name. *)

val pp_json_list : file:string -> t list Fmt.t
val json_escape : string -> string

type counts = { errors : int; warnings : int; infos : int }

val count : t list -> counts
val pp_counts : counts Fmt.t
