(* Scalable instance and theory generators for tests and benchmarks. *)

open Bddfc_logic
open Bddfc_structure

(* A directed chain c0 -> c1 -> ... of constants. *)
let chain ?(pred = "e") ~len () =
  let inst = Instance.create () in
  let node i = Instance.const inst ("c" ^ string_of_int i) in
  for i = 0 to len - 2 do
    ignore
      (Instance.add_fact inst
         (Fact.make (Pred.make pred 2) [| node i; node (i + 1) |]))
  done;
  if len = 1 then ignore (node 0);
  inst

(* A chain whose tail elements are labelled nulls (a chase-prefix shape):
   the first [consts] elements are constants. *)
let null_chain ?(pred = "e") ?(consts = 1) ~len () =
  let inst = Instance.create () in
  let p = Pred.make pred 2 in
  let prev = ref None in
  for i = 0 to len - 1 do
    let e =
      if i < consts then Instance.const inst ("c" ^ string_of_int i)
      else Instance.fresh_null inst ~birth:i ~rule:"gen" ~parent:!prev
    in
    (match !prev with
    | Some p' -> ignore (Instance.add_fact inst (Fact.make p [| p'; e |]))
    | None -> ());
    prev := Some e
  done;
  inst

(* A directed cycle of constants. *)
let cycle ?(pred = "e") ~len () =
  let inst = Instance.create () in
  let node i = Instance.const inst ("c" ^ string_of_int i) in
  for i = 0 to len - 1 do
    ignore
      (Instance.add_fact inst
         (Fact.make (Pred.make pred 2) [| node i; node ((i + 1) mod len) |]))
  done;
  inst

(* A complete binary tree of nulls under a constant root, with edge labels
   alternating between [left] and [right]. *)
let binary_tree ?(left = "f") ?(right = "g") ~depth () =
  let inst = Instance.create () in
  let lp = Pred.make left 2 and rp = Pred.make right 2 in
  let root = Instance.const inst "root" in
  let rec grow parent d =
    if d < depth then begin
      let l = Instance.fresh_null inst ~birth:d ~rule:"tree" ~parent:(Some parent) in
      let r = Instance.fresh_null inst ~birth:d ~rule:"tree" ~parent:(Some parent) in
      ignore (Instance.add_fact inst (Fact.make lp [| parent; l |]));
      ignore (Instance.add_fact inst (Fact.make rp [| parent; r |]));
      grow l (d + 1);
      grow r (d + 1)
    end
  in
  grow root 0;
  inst

(* Pseudo-random sparse digraph over constants (deterministic in seed). *)
let random_digraph ?(pred = "e") ~nodes ~edges ~seed () =
  let st = Random.State.make [| seed |] in
  let inst = Instance.create () in
  let node i = Instance.const inst ("v" ^ string_of_int i) in
  for i = 0 to nodes - 1 do
    ignore (node i)
  done;
  let p = Pred.make pred 2 in
  let added = ref 0 in
  let guard = ref 0 in
  while !added < edges && !guard < 50 * edges do
    incr guard;
    let a = node (Random.State.int st nodes)
    and b = node (Random.State.int st nodes) in
    if Instance.add_fact inst (Fact.make p [| a; b |]) then incr added
  done;
  inst

(* Multiple disjoint e-edges: n independent seeds for the chase. *)
let seeds ?(pred = "e") ~n () =
  let inst = Instance.create () in
  let p = Pred.make pred 2 in
  for i = 0 to n - 1 do
    let a = Instance.const inst (Printf.sprintf "s%da" i)
    and b = Instance.const inst (Printf.sprintf "s%db" i) in
    ignore (Instance.add_fact inst (Fact.make p [| a; b |]))
  done;
  inst

(* A family of linear binary theories: k relation symbols r0..r_{k-1},
   with successor rules r_i(X,Y) -> exists Z. r_{(i+1) mod k}(Y,Z). *)
let linear_cycle_theory ~k =
  Parser.parse_theory
    (String.concat "\n"
       (List.init k (fun i ->
            Printf.sprintf "r%d(X,Y) -> exists Z. r%d(Y,Z)." i ((i + 1) mod k))))

(* The Example 9 branching-tree theory over k edge labels. *)
let branching_theory ~k =
  let labels = List.init k (fun i -> Printf.sprintf "t%d" i) in
  Parser.parse_theory
    (String.concat "\n"
       (List.concat_map
          (fun a ->
            List.map
              (fun b -> Printf.sprintf "%s(X,Y) -> exists Z. %s(Y,Z)." a b)
              labels)
          labels))

(* A pseudo-random binary frontier-one theory: single-head rules over a
   small binary/unary vocabulary, bodies of 1-2 atoms, heads either
   datalog (frontier-bound) or existential in Theorem-1 shape.
   Deterministic in the seed; used to fuzz the pipeline's honesty. *)
let random_binary_theory ?(rules = 4) ~seed () =
  let st = Random.State.make [| seed; 77 |] in
  let binaries = [ "e"; "r"; "f" ] and unaries = [ "p"; "q" ] in
  let pick l = List.nth l (Random.State.int st (List.length l)) in
  let vars = [ "X"; "Y"; "Z" ] in
  let atom () =
    if Random.State.bool st then
      Printf.sprintf "%s(%s,%s)" (pick binaries) (pick vars) (pick vars)
    else Printf.sprintf "%s(%s)" (pick unaries) (pick vars)
  in
  let rule () =
    let b1 = atom () in
    let body = if Random.State.bool st then b1 else b1 ^ ", " ^ atom () in
    (* pick a frontier variable actually present in the body *)
    let present =
      List.filter (fun v -> Astring_contains.contains body v) vars
    in
    let y = match present with v :: _ -> v | [] -> "X" in
    let head =
      match Random.State.int st 3 with
      | 0 -> Printf.sprintf "exists W. %s(%s,W)" (pick binaries) y
      | 1 -> Printf.sprintf "%s(%s)" (pick unaries) y
      | _ -> Printf.sprintf "%s(%s,%s)" (pick binaries) y y
    in
    Printf.sprintf "%s -> %s." body head
  in
  let src = String.concat "\n" (List.init rules (fun _ -> rule ())) in
  Parser.parse_theory src

and random_instance ?(facts = 4) ~seed () =
  let st = Random.State.make [| seed; 991 |] in
  let consts = [ "a"; "b"; "c" ] in
  let pick l = List.nth l (Random.State.int st (List.length l)) in
  let fact () =
    if Random.State.bool st then
      Printf.sprintf "%s(%s,%s)." (pick [ "e"; "r"; "f" ]) (pick consts)
        (pick consts)
    else Printf.sprintf "%s(%s)." (pick [ "p"; "q" ]) (pick consts)
  in
  Instance.of_atoms
    (Parser.parse_atoms (String.concat " " (List.init facts (fun _ -> fact ()))))
