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

   Cost model.  [natural] reads a dense view built by two passes over
   the facts: P(e) for every element, the null-to-null edges for the
   topological order, and every fact filed under its youngest
   (largest-id) null argument, constant-only facts kept apart.  The
   lightness key of e scans the facts filed under the members of P(e),
   keeps those whose nulls all lie in P(e) (a stamp array), adds the
   constant-only facts and takes the canonical form
   ({!Canonical.least_encoding}) of the result.  The work is the two
   passes plus sum_e (|constant-only facts| + sum_{d in P(e)}
   |filed(d)|): a child's edge is filed under the child, so a hub's
   children never scan each other's edges.  In a skeleton P(e) is
   bounded (Lemma 3(iv)) and its free elements are nearly always rigid,
   so a form is one refinement, or one sort when P(e) holds a single
   null besides e.  Hues take a stamped walk of m+1 hops over P for the
   P_m conflicts and a stamp per hue for the smallest free one.
   [materialize] (a copy of the instance plus one fact per element) is
   what remains of the cost. *)

open Bddfc_logic
open Bddfc_structure
module Obs = Bddfc_obs.Obs

(* Facts examined while building lightness keys: the filing pass plus
   every filed or constant-only fact a key scans.  Deterministic. *)
let m_facts_visited = Obs.Metrics.counter "coloring.facts_visited"

type t = {
  colored : Instance.t; (* C-bar: a copy of C plus one color atom per elt *)
  hue : int array;
  lightness : int array;
  num_hues : int;
  num_lightnesses : int;
}

let is_color p = Color.of_pred p <> None
let color_preds inst = Pred.Set.filter is_color (Instance.preds inst)

(* Strip color atoms: C-bar |` Sigma. *)
let uncolor inst =
  Instance.restrict_preds inst
    (Pred.Set.filter (fun p -> not (is_color p)) (Instance.preds inst))

let materialize inst hue lightness =
  let colored = Instance.copy inst in
  let n = Instance.num_elements inst in
  let num_h = ref 0 and num_l = ref 0 in
  let preds = Hashtbl.create 16 in
  let color_pred hue lightness =
    match Hashtbl.find_opt preds (hue, lightness) with
    | Some p -> p
    | None ->
        let p = Color.pred ~hue ~lightness in
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

(* The dense view the natural coloring reads, from two passes over the
   facts.  Segments are flat: the segment of e in (start, data) is
   data.(start.(e)) .. data.(start.(e+1) - 1).
     - P(e) of Definition 10: {e} for a constant, e and its non-constant
       binary predecessors otherwise (as [Bgraph.pred_set]);
     - the facts filed under e: those whose youngest (largest-id) null
       argument is e; constant-only facts are kept apart;
     - the null-to-null binary edges out of e, oldest fact first (the
       order of [Bgraph.out_edges]), for the topological order. *)
type view = {
  null : bool array;
  p_start : int array;
  p_data : int array;
  f_start : int array;
  f_data : Fact.t array;
  const_only : Fact.t list;
  o_start : int array;
  o_data : int array;
}

let youngest_null null f =
  let args = Fact.args f and y = ref (-1) in
  for i = 0 to Array.length args - 1 do
    if null.(args.(i)) && args.(i) > !y then y := args.(i)
  done;
  !y

(* Turn per-element counts at [c.(e+1)] into segment starts. *)
let prefix_sums c =
  for i = 1 to Array.length c - 1 do
    c.(i) <- c.(i) + c.(i - 1)
  done

let view inst =
  let n = Instance.num_elements inst in
  let null = Array.init n (Instance.is_null inst) in
  let f_start = Array.make (n + 1) 0 and o_start = Array.make (n + 1) 0 in
  let i_start = Array.make (n + 1) 0 in
  let const_only = ref [] in
  let null_edge f k =
    match Fact.args f with
    | [| x; y |] when null.(x) && null.(y) -> k x y
    | _ -> ()
  in
  let count_edge x y =
    o_start.(x + 1) <- o_start.(x + 1) + 1;
    i_start.(y + 1) <- i_start.(y + 1) + 1
  in
  Instance.iter_facts
    (fun f ->
      let y = youngest_null null f in
      if y < 0 then const_only := f :: !const_only
      else f_start.(y + 1) <- f_start.(y + 1) + 1;
      null_edge f count_edge)
    inst;
  prefix_sums f_start;
  prefix_sums o_start;
  prefix_sums i_start;
  let f_data = ref [||] in
  let o_data = Array.make o_start.(n) 0 and i_data = Array.make i_start.(n) 0 in
  (* fill each segment from its end: the facts come newest first *)
  let f_end = Array.sub f_start 1 n and o_end = Array.sub o_start 1 n in
  let i_end = Array.sub i_start 1 n in
  let put data ends e x =
    ends.(e) <- ends.(e) - 1;
    data.(ends.(e)) <- x
  in
  let fill_edge x y =
    put o_data o_end x y;
    put i_data i_end y x
  in
  Instance.iter_facts
    (fun f ->
      let y = youngest_null null f in
      if y >= 0 then begin
        (* the first filed fact seeds the array *)
        if Array.length !f_data = 0 then f_data := Array.make f_start.(n) f;
        put !f_data f_end y f
      end;
      null_edge f fill_edge)
    inst;
  (* P(e): e, then its distinct null predecessors ([p_data] may have
     unused room at its end) *)
  let seen = Array.make n (-1) in
  let p_start = Array.make (n + 1) 0 in
  let p_data = Array.make (n + i_start.(n)) 0 and pos = ref 0 in
  let add e d =
    seen.(d) <- e;
    p_data.(!pos) <- d;
    incr pos
  in
  for e = 0 to n - 1 do
    p_start.(e) <- !pos;
    add e e;
    for i = i_start.(e) to i_start.(e + 1) - 1 do
      if seen.(i_data.(i)) <> e then add e i_data.(i)
    done
  done;
  p_start.(n) <- !pos;
  { null; p_start; p_data; f_start; f_data = !f_data;
    const_only = !const_only;
    o_start; o_data }

(* [| pred id; codes of the arguments |] *)
let encode_fact code f =
  let args = Fact.args f in
  let a = Array.make (Array.length args + 1) (Pred.id (Fact.pred f)) in
  for i = 0 to Array.length args - 1 do
    a.(i + 1) <- code args.(i)
  done;
  a

(* Whether every null among [args] is marked a member for [e]. *)
let nulls_inside null member e args =
  let ok = ref true and i = ref 0 in
  while !ok && !i < Array.length args do
    if null.(args.(!i)) && member.(args.(!i)) <> e then ok := false;
    incr i
  done;
  !ok

(* Per element, in element order, [fn e key] with the canonical form of
   C |` (P(e) u C_con) rooted at e: constants are coded by element id (one
   instance, so id = name), the root by -1, the other nulls by local
   indices.  A fact lies inside P(e) u C_con iff its nulls all lie in
   P(e), and each fact is filed under its youngest null, so the facts
   filed under the members of P(e) hold each induced fact once.  Keys
   [fn] drops die young. *)
let iter_keys v (fn : int -> int array -> unit) =
  let n = Array.length v.null in
  let null = v.null in
  let const_code a = -2 - a in
  (* no null root is a constant: encode the constant-only facts once *)
  let consts_null_root = List.map (encode_fact const_code) v.const_only in
  let num_const_only = List.length v.const_only in
  let visited = ref (Array.length v.f_data + num_const_only) in
  let member = Array.make n (-1) and local = Array.make n 0 in
  let key_of e =
    if not null.(e) then
      Canonical.least_encoding 0
        (List.map
           (encode_fact (fun a -> if a = e then -1 else const_code a))
           v.const_only)
    else begin
      for i = v.p_start.(e) to v.p_start.(e + 1) - 1 do
        member.(v.p_data.(i)) <- e;
        local.(v.p_data.(i)) <- 0
      done;
      (* local index + 1 of the free nulls met so far; 0 = unmet *)
      let free = ref 0 in
      let code a =
        if a = e then -1
        else if not null.(a) then const_code a
        else begin
          if local.(a) = 0 then begin
            incr free;
            local.(a) <- !free
          end;
          local.(a) - 1
        end
      in
      let facts = ref consts_null_root in
      for i = v.p_start.(e) to v.p_start.(e + 1) - 1 do
        let d = v.p_data.(i) in
        for j = v.f_start.(d) to v.f_start.(d + 1) - 1 do
          let f = v.f_data.(j) in
          if nulls_inside null member e (Fact.args f) then
            facts := encode_fact code f :: !facts
        done;
        visited := !visited + v.f_start.(d + 1) - v.f_start.(d)
      done;
      Canonical.least_encoding !free !facts
    end
  in
  for e = 0 to n - 1 do
    visited := !visited + num_const_only;
    fn e (key_of e)
  done;
  Obs.Metrics.add m_facts_visited !visited

let neighbourhood_keys inst =
  let v = view inst in
  let keys = Array.make (Array.length v.null) [||] in
  iter_keys v (fun e key -> keys.(e) <- key);
  keys

let natural ~m inst =
  let v = view inst in
  let n = Array.length v.null in
  let hue = Array.make (max n 1) 0 in
  let lightness = Array.make (max n 1) 0 in
  (* lightness: canonical neighbourhood forms, interned in element order *)
  let lkeys = Canonical.Table.create 64 in
  iter_keys v (fun e key ->
      lightness.(e) <-
        (match Canonical.Table.find_opt lkeys key with
        | Some id -> id
        | None ->
            let id = Canonical.Table.length lkeys in
            Canonical.Table.replace lkeys key id;
            id));
  (* hue: greedy proper coloring of the "P_m-conflict" relation, walking
     ancestors before descendants, so every conflict of e is colored
     before e.  The conflicts of e are the elements within m+1 hops of P
     from e ([Bgraph.pred_set_k g m e] minus e), found by a stamped walk;
     the smallest hue no conflict holds is found by a stamp per hue. *)
  let topo =
    (* [Bgraph.topo_order]'s order, over the view's edges *)
    Bgraph.topo_sort n
      ~relevant:(fun e -> v.null.(e))
      ~iter_succ:(fun e f ->
        for i = v.o_start.(e) to v.o_start.(e + 1) - 1 do
          f v.o_data.(i)
        done)
  in
  let order =
    match topo with
    | Some topo ->
        let consts = List.filter (fun e -> not v.null.(e)) (List.init n Fun.id) in
        Array.append (Array.of_list consts) topo
    | None ->
        (* the nulls have a directed cycle, so no order colors every
           conflict before its element: each element gets its own hue,
           which is trivially proper *)
        Array.iteri (fun e _ -> hue.(e) <- e) v.null;
        [||]
  in
  let stamp = Array.make n 0 and used = Array.make (n + 1) 0 in
  let queue = Array.make n 0 in
  Array.iter
    (fun e ->
      let mark = e + 1 in
      stamp.(e) <- mark;
      queue.(0) <- e;
      let lo = ref 0 and tail = ref 1 in
      for _ = 1 to max m 0 + 1 do
        let hi = !tail in
        for q = !lo to hi - 1 do
          let x = queue.(q) in
          for i = v.p_start.(x) to v.p_start.(x + 1) - 1 do
            let d = v.p_data.(i) in
            if stamp.(d) <> mark then begin
              stamp.(d) <- mark;
              used.(hue.(d)) <- mark;
              queue.(!tail) <- d;
              incr tail
            end
          done
        done;
        lo := hi
      done;
      let rec smallest h = if used.(h) = mark then smallest (h + 1) else h in
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
  let keys = neighbourhood_keys inst in
  let first = Hashtbl.create 64 in
  for e = 0 to n - 1 do
    match Hashtbl.find_opt first (c.hue.(e), c.lightness.(e)) with
    | None -> Hashtbl.replace first (c.hue.(e), c.lightness.(e)) e
    | Some rep ->
        if size rep <> size e || keys.(rep) <> keys.(e) then
          violations := Lightness_clash (rep, e) :: !violations
  done;
  !violations
