(* Warm sessions: parsed theory + database + lint census built eagerly
   at load, chase prefixes and definite verdicts accumulated lazily.
   The source text survives eviction so a poisoned session rebuilds on
   next use instead of being served. *)

open Bddfc_logic
open Bddfc_structure

type warm = {
  theory : Theory.t;
  db : Instance.t;
  lint : Bddfc_analysis.Diagnostic.counts;
  chase : (int, Bddfc_chase.Maintain.state) Hashtbl.t;
  verdicts : (string, (string * Bddfc_obs.Obs.Json.t) list) Hashtbl.t;
  slices : (string, Bddfc_analysis.Dataflow.slice) Hashtbl.t;
      (* query-directed rule slices, keyed by the sorted predicate
         names of the query (Server.slice_of); memo hits bump
         analysis.slice_hits *)
}

(* The net effect of the successful assert/retract batches: per atom
   (loc-blind), whether its last mention left it present.  An atom's
   presence in the db depends only on its last mention, so this rebuilds
   the same db facts as the batches themselves while staying bounded by
   the distinct atoms ever updated — a churning session does not grow
   with its write count. *)
module Net = Map.Make (Atom)

type updates = bool Net.t

type entry = {
  source : string;
  mutable warm : warm option;
  mutable builds : int;
  mutable updates : updates;
      (* the source text alone no longer describes the db, so a rebuild
         after eviction must apply these *)
}

type store = (string, entry) Hashtbl.t

let create () : store = Hashtbl.create 8

let build source updates =
  let p = Parser.parse_program source in
  let theory = Theory.make p.Parser.rules in
  let db = Instance.of_atoms p.Parser.facts in
  let insert, retract = Net.partition (fun _ present -> present) updates in
  ignore
    (Bddfc_chase.Maintain.update_db db
       ~insert:(List.map fst (Net.bindings insert))
       ~retract:(List.map fst (Net.bindings retract)));
  let lint =
    Bddfc_analysis.Diagnostic.count
      (Bddfc_analysis.Analyzer.analyze_program p)
  in
  {
    theory;
    db;
    lint;
    chase = Hashtbl.create 4;
    verdicts = Hashtbl.create 8;
    slices = Hashtbl.create 4;
  }

let load store ~name ~source =
  let entry =
    {
      source;
      warm = Some (build source Net.empty);
      builds = 1;
      updates = Net.empty;
    }
  in
  Hashtbl.replace store name entry;
  entry

let find store name = Hashtbl.find_opt store name

let warm _store entry =
  match entry.warm with
  | Some w -> w
  | None ->
      (* rebuild-on-next-use after an eviction; the source parsed at
         load time, so this can only re-raise if it did then *)
      let w = build entry.source entry.updates in
      entry.warm <- Some w;
      entry.builds <- entry.builds + 1;
      w

(* Retractions are mentioned before insertions, the order
   Maintain.update_db applies a batch in. *)
let log_update entry ~insert ~retract =
  let mention present net a = Net.add a present net in
  entry.updates <-
    List.fold_left (mention true)
      (List.fold_left (mention false) entry.updates retract)
      insert

let evict store name =
  match Hashtbl.find_opt store name with
  | Some ({ warm = Some _; _ } as entry) ->
      entry.warm <- None;
      true
  | Some { warm = None; _ } | None -> false

let count store =
  Hashtbl.fold
    (fun _ e n -> if e.warm <> None then n + 1 else n)
    store 0
