(* Syntactic recognizers for the Datalog-exists classes discussed in the
   paper's introduction and Section 5.

   The [report] is rebased on the static analyzer: one pass produces the
   class-membership diagnostics, each non-membership carrying a concrete
   refutation witness (offender atom, special-edge cycle, marking trace),
   and the booleans are derived from the absence of the matching code. *)

module A = Bddfc_analysis.Analyzer
module D = Bddfc_analysis.Diagnostic

type report = {
  binary : bool;
  single_head : bool;
  linear : bool;
  guarded : bool;
  sticky : bool;
  frontier_one : bool;
  weakly_acyclic : bool;
  jointly_acyclic : bool;
  normalized : bool; (* the ♠5 discipline *)
  details : D.t list; (* the analyzer diagnostics behind the booleans *)
}

let report theory =
  let details = A.analyze_theory theory in
  let out code = A.has_code code details in
  {
    binary = not (out A.Codes.non_binary);
    single_head = not (out A.Codes.multi_head);
    linear = not (out A.Codes.non_linear);
    guarded = not (out A.Codes.non_guarded);
    sticky = not (out A.Codes.not_sticky);
    frontier_one = not (out A.Codes.non_frontier_one);
    weakly_acyclic = not (out A.Codes.wa_cycle);
    jointly_acyclic = not (out A.Codes.ja_cycle);
    normalized = not (out A.Codes.not_normalized);
    details;
  }

(* Pad to a display width; labels may contain multi-byte glyphs (♠), so
   count codepoints, not bytes. *)
let display_len s =
  let n = ref 0 in
  String.iter (fun c -> if Char.code c land 0xc0 <> 0x80 then incr n) s;
  !n

let pad s n = s ^ String.make (max 0 (n - display_len s)) ' '

let pp_report ppf r =
  let rows =
    [ ("binary", r.binary, A.Codes.non_binary);
      ("single-head", r.single_head, A.Codes.multi_head);
      ("linear", r.linear, A.Codes.non_linear);
      ("guarded", r.guarded, A.Codes.non_guarded);
      ("sticky", r.sticky, A.Codes.not_sticky);
      ("frontier-one", r.frontier_one, A.Codes.non_frontier_one);
      ("weakly-acyclic", r.weakly_acyclic, A.Codes.wa_cycle);
      ("jointly-acyclic", r.jointly_acyclic, A.Codes.ja_cycle);
      ("♠5-normalized", r.normalized, A.Codes.not_normalized)
    ]
  in
  Fmt.pf ppf "@[<v>";
  List.iteri
    (fun i (label, member, code) ->
      if i > 0 then Fmt.cut ppf ();
      Fmt.pf ppf "%s %s" (pad label 16) (if member then "yes" else "no ");
      if not member then
        match A.find_code code r.details with
        | Some d when d.D.witness <> "" -> Fmt.pf ppf "  (%s)" d.D.witness
        | _ -> ())
    rows;
  Fmt.pf ppf "@]"
