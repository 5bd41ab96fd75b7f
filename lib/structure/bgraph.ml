(* Binary-signature view of a structure as an edge-labelled directed graph
   (Section 2.7: "structures over such signatures can be in a natural way
   seen as directed graphs").  Adjacency is precomputed once; the view is
   a snapshot and does not follow later mutations of the instance. *)

open Bddfc_logic

type edge = { label : Pred.t; src : Element.id; dst : Element.id }

type t = {
  inst : Instance.t;
  out_adj : (Pred.t * Element.id) list array; (* e -> [(R, d) | R(e, d)] *)
  in_adj : (Pred.t * Element.id) list array; (* e -> [(R, d) | R(d, e)] *)
  unary : Pred.t list array;
  n : int;
}

let make inst =
  let n = Instance.num_elements inst in
  let out_adj = Array.make (max n 1) [] in
  let in_adj = Array.make (max n 1) [] in
  let unary = Array.make (max n 1) [] in
  Instance.iter_facts
    (fun f ->
      match Fact.args f with
      | [| x |] -> unary.(x) <- Fact.pred f :: unary.(x)
      | [| x; y |] ->
          out_adj.(x) <- (Fact.pred f, y) :: out_adj.(x);
          in_adj.(y) <- (Fact.pred f, x) :: in_adj.(y)
      | _ -> ())
    inst;
  { inst; out_adj; in_adj; unary; n }

let instance g = g.inst
let size g = g.n
let out_edges g e = g.out_adj.(e)
let in_edges g e = g.in_adj.(e)
let unary_labels g e = g.unary.(e)
let out_degree g e = List.length g.out_adj.(e)
let in_degree g e = List.length g.in_adj.(e)
let degree g e = out_degree g e + in_degree g e

let max_degree g =
  let rec go i m = if i >= g.n then m else go (i + 1) (max m (degree g i)) in
  go 0 0

let edges g =
  List.concat
    (List.init g.n (fun src ->
         List.map (fun (label, dst) -> { label; src; dst }) g.out_adj.(src)))

(* Direct predecessors of [e] in the paper's sense (Definition 10):
   P(e) = {e} for constants; {e} union the non-constant R-predecessors of a
   non-constant e. *)
let pred_set g e =
  if Instance.is_const g.inst e then Element.Id_set.singleton e
  else
    List.fold_left
      (fun acc (_, d) ->
        if Instance.is_null g.inst d then Element.Id_set.add d acc else acc)
      (Element.Id_set.singleton e)
      g.in_adj.(e)

(* P applied k times on top of P(e): P^(k+1)(e), so k = 0 is P(e).  The
   natural coloring separates hues over exactly these sets. *)
let pred_set_k g k e =
  let rec go k s =
    if k <= 0 then s
    else
      go (k - 1)
        (Element.Id_set.fold
           (fun a acc -> Element.Id_set.union acc (pred_set g a))
           s s)
  in
  go k (pred_set g e)

(* Depth-first search for directed cycles among non-constant elements of
   length at most [max_len] (0 = unrestricted).  Used to validate Lemma 9
   experimentally. *)
let directed_cycles_upto g max_len =
  let cycles = ref [] in
  let rec walk start path seen e len =
    if max_len > 0 && len > max_len then ()
    else
      List.iter
        (fun (_, d) ->
          if Instance.is_null g.inst d then
            if d = start && len >= 1 then cycles := List.rev (e :: path) :: !cycles
            else if not (Element.Id_set.mem d seen) then
              walk start (e :: path) (Element.Id_set.add d seen) d (len + 1))
        g.out_adj.(e)
  in
  for e = 0 to g.n - 1 do
    if Instance.is_null g.inst e then
      walk e [] (Element.Id_set.singleton e) e 1
  done;
  !cycles

let has_directed_cycle_upto g max_len = directed_cycles_upto g max_len <> []

(* Kahn's algorithm over the elements [relevant] keeps: sources in id
   order, a FIFO queue, each element's successors in [iter_succ] order.
   None if the kept part has a directed cycle. *)
let topo_sort n ~relevant ~iter_succ =
  let indeg = Array.make (max n 1) 0 in
  let total = ref 0 in
  let bump d = indeg.(d) <- indeg.(d) + 1 in
  for e = 0 to n - 1 do
    if relevant e then begin
      incr total;
      iter_succ e bump
    end
  done;
  (* the queue is also the output order *)
  let queue = Array.make (max n 1) 0 and tail = ref 0 in
  let push e =
    queue.(!tail) <- e;
    incr tail
  in
  for e = 0 to n - 1 do
    if relevant e && indeg.(e) = 0 then push e
  done;
  let release d =
    indeg.(d) <- indeg.(d) - 1;
    if indeg.(d) = 0 then push d
  in
  let head = ref 0 in
  while !head < !tail do
    let e = queue.(!head) in
    incr head;
    iter_succ e release
  done;
  if !tail = !total then Some (Array.sub queue 0 !tail) else None

(* Topological order of the non-constant part, roots first.  Returns None
   if the non-constant part has a directed cycle. *)
let topo_order g =
  let relevant e = Instance.is_null g.inst e in
  topo_sort g.n ~relevant
    ~iter_succ:(fun e f ->
      List.iter (fun (_, d) -> if relevant d then f d) g.out_adj.(e))
  |> Option.map Array.to_list

(* Distance-bounded undirected ball around an element (ignoring edge
   direction), including [e]. *)
let ball g e radius =
  let rec go frontier acc r =
    if r <= 0 || Element.Id_set.is_empty frontier then acc
    else
      let next =
        Element.Id_set.fold
          (fun x acc' ->
            let nbrs =
              List.map snd g.out_adj.(x) @ List.map snd g.in_adj.(x)
            in
            List.fold_left
              (fun s d ->
                if Element.Id_set.mem d acc then s else Element.Id_set.add d s)
              acc' nbrs)
          frontier Element.Id_set.empty
      in
      go next (Element.Id_set.union acc next) (r - 1)
  in
  go (Element.Id_set.singleton e) (Element.Id_set.singleton e) radius
