(* Colorings (Definitions 6, 7, 13, 14).

   A color K^l_h is a unary predicate with a *hue* h and a *lightness* l.
   A coloring of C adds exactly one color atom per element.  A *natural*
   coloring additionally satisfies:

     - elements within ancestor-distance m of each other (e' in P_m(e))
       have different hues;
     - two elements share a lightness only if their predecessor
       neighbourhoods C |` (P(e) u C_con) are isomorphic (constants fixed,
       e matched to e').

   [natural] implements this for VTDAGs by a greedy hue assignment along a
   topological order, with lightness interned from canonical neighbourhood
   keys.  [distance] implements the Lemma 13 variant for bounded-degree
   structures: all colors pairwise distinct within each radius-m ball.

   Cost of the lightness keys: one pass files every fact under the set of
   its non-constant arguments; each element then takes the facts induced
   on P(e) u C_con from the groups of the subsets of P(e) (the empty set's
   group holds the constant-only facts), and renders them once per
   permutation.  The total is one pass over the instance plus, per e,
   2^|P(e)| group lookups and |facts induced on P(e) u C_con| x |perms|
   renderings — linear in a skeleton whose P(e) are bounded
   (Lemma 3(iv)), however many children a hub has. *)

open Bddfc_logic
open Bddfc_structure
module Obs = Bddfc_obs.Obs

(* Facts examined while building lightness keys: the filing pass plus
   every fact handed to a key.  Deterministic. *)
let m_facts_visited = Obs.Metrics.counter "coloring.facts_visited"

type t = {
  colored : Instance.t; (* C-bar: a copy of C plus one color atom per elt *)
  hue : int array;
  lightness : int array;
  num_hues : int;
  num_lightnesses : int;
}

let color_pred_name ~hue ~lightness =
  Printf.sprintf "k%d_%d" hue lightness

(* Parse a color predicate name back into (hue, lightness). *)
let parse_color_pred name =
  if String.length name < 2 || name.[0] <> 'k' then None
  else
    match String.split_on_char '_' (String.sub name 1 (String.length name - 1)) with
    | [ h; l ] -> (
        match (int_of_string_opt h, int_of_string_opt l) with
        | Some h, Some l -> Some (h, l)
        | _ -> None)
    | _ -> None

let color_preds inst =
  Pred.Set.filter
    (fun p -> Pred.is_unary p && parse_color_pred (Pred.name p) <> None)
    (Instance.preds inst)

(* Strip color atoms: C-bar |` Sigma. *)
let uncolor inst =
  let keep =
    Pred.Set.filter
      (fun p -> not (Pred.is_unary p && parse_color_pred (Pred.name p) <> None))
      (Instance.preds inst)
  in
  Instance.restrict_preds inst keep

let materialize inst hue lightness =
  let colored = Instance.copy inst in
  let n = Instance.num_elements inst in
  let num_h = ref 0 and num_l = ref 0 in
  let preds = Hashtbl.create 16 in
  let color_pred hue lightness =
    match Hashtbl.find_opt preds (hue, lightness) with
    | Some p -> p
    | None ->
        let p = Pred.make (color_pred_name ~hue ~lightness) 1 in
        Hashtbl.replace preds (hue, lightness) p;
        p
  in
  for e = 0 to n - 1 do
    num_h := max !num_h (hue.(e) + 1);
    num_l := max !num_l (lightness.(e) + 1);
    let p = color_pred hue.(e) lightness.(e) in
    ignore (Instance.add_fact colored (Fact.make p [| e |]))
  done;
  {
    colored;
    hue;
    lightness;
    num_hues = !num_h;
    num_lightnesses = !num_l;
  }

(* ----------------------------------------------------------------- *)
(* Natural colorings of VTDAGs (Definition 14)                        *)
(* ----------------------------------------------------------------- *)

(* The sorted distinct non-constant arguments of a fact. *)
let null_args inst f =
  Array.fold_left
    (fun acc a -> if Instance.is_const inst a then acc else a :: acc)
    [] (Fact.args f)
  |> List.sort_uniq compare

(* All sublists, order kept: the subsets of a sorted set, each sorted. *)
let rec sublists = function
  | [] -> [ [] ]
  | x :: rest ->
      let without = sublists rest in
      without @ List.map (fun s -> x :: s) without

(* Per element, the canonical key of C |` (P(e) u C_con) with root e.  A
   fact lies inside P(e) u C_con iff its non-constant arguments form a
   subset of P(e), so filing facts by that set lists each induced fact
   exactly once.  The groups are transient: only the keys survive. *)
let keys_of g inst =
  let groups = Hashtbl.create (Instance.num_facts inst + 1) in
  let visited = ref (Instance.num_facts inst) in
  Instance.iter_facts
    (fun f ->
      let s = null_args inst f in
      Hashtbl.replace groups s
        (f :: Option.value (Hashtbl.find_opt groups s) ~default:[]))
    inst;
  let consts = Instance.constants inst in
  let keys =
    Array.init (Instance.num_elements inst) (fun e ->
        let p = Element.Id_set.elements (Bgraph.pred_set g e) in
        let nulls = List.filter (Instance.is_null inst) p in
        let facts =
          (* beyond 8 free elements (plus the root) the key is refused
             before anything renders: skip the 2^|P(e)| lookups *)
          if List.length nulls > 9 then []
          else
            List.concat_map
              (fun s ->
                match Hashtbl.find_opt groups s with
                | Some fs ->
                    visited := !visited + List.length fs;
                    fs
                | None -> [])
              (sublists nulls)
        in
        let elems = List.sort_uniq compare (p @ consts) in
        Canonical.key_of_facts ~root:e inst elems facts)
  in
  Obs.Metrics.add m_facts_visited !visited;
  keys

let neighbourhood_keys inst = keys_of (Bgraph.make inst) inst

let natural ~m inst =
  let g = Bgraph.make inst in
  let n = Instance.num_elements inst in
  let hue = Array.make (max n 1) 0 in
  let lightness = Array.make (max n 1) 0 in
  (* lightness: canonical neighbourhood keys, interned in element order *)
  let lkeys = Hashtbl.create 64 in
  let lnext = ref 0 in
  Array.iteri
    (fun e key ->
      lightness.(e) <-
        (match Hashtbl.find_opt lkeys key with
        | Some id -> id
        | None ->
            let id = !lnext in
            incr lnext;
            Hashtbl.replace lkeys key id;
            id))
    (keys_of g inst);
  (* hue: greedy proper coloring of the "P_m-conflict" relation, walking
     ancestors before descendants when the non-constant part is acyclic *)
  let order =
    match Bgraph.topo_order g with
    | Some topo ->
        List.filter (Instance.is_const inst) (Instance.elements inst) @ topo
    | None -> Instance.elements inst
  in
  List.iter
    (fun e ->
      let conflicts = Element.Id_set.remove e (Bgraph.pred_set_k g m e) in
      let used =
        Element.Id_set.fold (fun d acc -> hue.(d) :: acc) conflicts []
      in
      let rec smallest h = if List.mem h used then smallest (h + 1) else h in
      hue.(e) <- smallest 0)
    order;
  materialize inst hue lightness

(* ----------------------------------------------------------------- *)
(* Distance colorings for bounded degree (Lemma 13)                   *)
(* ----------------------------------------------------------------- *)

let distance ~radius inst =
  let g = Bgraph.make inst in
  let n = Instance.num_elements inst in
  let hue = Array.make (max n 1) (-1) in
  for e = 0 to n - 1 do
    let ball = Element.Id_set.remove e (Bgraph.ball g e radius) in
    let used =
      Element.Id_set.fold
        (fun d acc -> if hue.(d) >= 0 then hue.(d) :: acc else acc)
        ball []
    in
    let rec smallest h = if List.mem h used then smallest (h + 1) else h in
    hue.(e) <- smallest 0
  done;
  materialize inst hue (Array.make (max n 1) 0)

(* ----------------------------------------------------------------- *)
(* Validation against Definition 14                                   *)
(* ----------------------------------------------------------------- *)

type violation =
  | Hue_clash of Element.id * Element.id
  | Lightness_clash of Element.id * Element.id

let check_natural ~m inst (c : t) =
  let g = Bgraph.make inst in
  let n = Instance.num_elements inst in
  let violations = ref [] in
  for e = 0 to n - 1 do
    Element.Id_set.iter
      (fun e' ->
        if e' <> e && c.hue.(e) = c.hue.(e') then
          violations := Hue_clash (e, e') :: !violations)
      (Bgraph.pred_set_k g m e)
  done;
  (* same full color implies isomorphic neighbourhoods: every member of a
     color class must match the class's first member, in neighbourhood
     size and key *)
  let consts = Element.Id_set.of_list (Instance.constants inst) in
  let size e =
    Element.Id_set.cardinal (Element.Id_set.union (Bgraph.pred_set g e) consts)
  in
  let keys = keys_of g inst in
  let first = Hashtbl.create 64 in
  for e = 0 to n - 1 do
    match Hashtbl.find_opt first (c.hue.(e), c.lightness.(e)) with
    | None -> Hashtbl.replace first (c.hue.(e), c.lightness.(e)) e
    | Some rep ->
        if size rep <> size e || not (String.equal keys.(rep) keys.(e)) then
          violations := Lightness_clash (rep, e) :: !violations
  done;
  !violations
