(** Syntactic recognizers for the Datalog-exists classes of the paper's
    introduction and Section 5.  The {!report} is computed by the static
    analyzer ({!Bddfc_analysis.Analyzer}); each [false] field has a
    matching diagnostic in [details] carrying a concrete refutation
    witness. *)

open Bddfc_logic

type report = {
  binary : bool;
  single_head : bool;
  linear : bool;
  guarded : bool;
  sticky : bool;
  frontier_one : bool;
  weakly_acyclic : bool;
  jointly_acyclic : bool;
  normalized : bool;
  details : Bddfc_analysis.Diagnostic.t list;
      (** the analyzer diagnostics behind the booleans: every [false]
          above is witnessed by the matching code in here *)
}

val report : Theory.t -> report

val pp_report : report Fmt.t
(** A named table, one class per line, with the refutation witness in
    parentheses next to every [no]. *)
