(* FC certificates: a finite model M with M |= D, T and M |/= Q is a
   checkable witness that the pair (D, Q) cannot separate the finite and
   the unrestricted semantics.  [verify] re-establishes every part of the
   judgement from scratch; nothing in the pipeline is trusted. *)

open Bddfc_logic
open Bddfc_structure
open Bddfc_hom

type t = {
  theory : Theory.t; (* the original theory T0 *)
  database : Instance.t; (* D *)
  query : Cq.t; (* Q *)
  model : Instance.t; (* the finite model M *)
}

type issue =
  | Missing_database_fact
  | Rule_violated of Model_check.violation
  | Query_satisfied

let verify cert =
  let issues = ref [] in
  if not (Model_check.contains_database ~db:cert.database cert.model) then
    issues := Missing_database_fact :: !issues;
  List.iter
    (fun v -> issues := Rule_violated v :: !issues)
    (Model_check.violations ~limit:5 cert.theory cert.model);
  if Eval.holds cert.model cert.query then issues := Query_satisfied :: !issues;
  List.rev !issues

let is_valid cert = verify cert = []

let pp ppf cert =
  Fmt.pf ppf
    "@[<v>certificate: model with %d elements, %d facts;@ query: %a@ valid: %b@]"
    (Instance.num_elements cert.model)
    (Instance.num_facts cert.model)
    Cq.pp cert.query (is_valid cert)
