(* Seeded request streams for the four workloads.

   Every workload is a cycle of fixed-composition blocks: a block holds
   the same multiset of request shapes for every seed (the strata), and
   the seed only renames constants, shuffles the order inside each
   block and, for serve-churn, draws the read anchors.  So each seed
   measures the same amount of work, and a percentile lands inside the
   same stratum whatever the seed.  A run executes whole blocks, which
   keeps the strata counts exact.

   The library never sees a parsed value built here: every request is
   program text (for [model]/[judge]) or a protocol line (for serve). *)

open Bddfc
module Zoo = Workload.Zoo

type cmd =
  | Model of int  (** [bddfc model --depth d] *)
  | Judge  (** [bddfc judge] *)

type batch = {
  stratum : string;
  cmd : cmd;
  text : string;  (** the whole program: rules, facts and one query *)
  expect : Zoo.expectation option;
      (** the paper's verdict for zoo-family inputs; [None] for the
          generated theories *)
}

(* ---------------------------- program text ---------------------------- *)

let rule_lines theory =
  List.map (fun r -> Fmt.str "%a." Logic.Rule.pp r) (Logic.Theory.rules theory)

let atom_line a = Fmt.str "%a." Logic.Atom.pp a

let program ~rules ~facts ~query =
  String.concat "\n" (rules @ List.map atom_line facts @ [ Fmt.str "%a." Logic.Cq.pp query ])
  ^ "\n"

(* A lowercase tag drawn from the seed, to rename a request's constants. *)
let tag rng =
  String.init 4 (fun _ -> Char.chr (Char.code 'a' + Random.State.int rng 26))

let rename_consts f atom =
  Logic.Atom.map_terms
    (fun t ->
      match Logic.Term.as_cst t with
      | Some c -> Logic.Term.cst (f c)
      | None -> t)
    atom

(* [copies] disjoint renamed copies of the entry's database. *)
let zoo_variant rng (e : Zoo.entry) ~copies =
  let t = tag rng in
  let facts =
    List.concat
      (List.init copies (fun i ->
           List.map
             (rename_consts (fun c -> Printf.sprintf "%s_%s%d" c t i))
             e.Zoo.database))
  in
  program ~rules:(rule_lines e.Zoo.theory) ~facts ~query:e.Zoo.query

let entry name =
  match Zoo.find name with
  | Some e -> e
  | None -> invalid_arg ("benchmark: no zoo entry " ^ name)

let shuffle rng a =
  for i = Array.length a - 1 downto 1 do
    let j = Random.State.int rng (i + 1) in
    let x = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- x
  done;
  a

(* ------------------------------ model-zoo ------------------------------ *)

(* The FC zoo entries whose default [model] run decides quickly; each
   appears with 1..8 renamed copies of its database. *)
let zoo_fc = [ "ex1"; "ex7"; "linear"; "sticky"; "weakly_acyclic"; "remark3" ]

(* Gen.random_binary_theory / random_instance seeds whose default
   [model] run decides (countermodel or certain) without the depth
   retry schedule: every seed in 0..119 does; the slowest, seed 26,
   takes about 16 ms.  A fixed pool keeps the per-block work identical
   across seeds. *)
let random_pool = List.init 48 Fun.id

let random_pair rng s =
  let theory = Workload.Gen.random_binary_theory ~rules:4 ~seed:s () in
  let db = Workload.Gen.random_instance ~facts:4 ~seed:s () in
  let t = tag rng in
  let facts =
    List.map
      (rename_consts (fun c -> c ^ "_" ^ t))
      (Structure.Instance.to_atoms db)
  in
  program ~rules:(rule_lines theory) ~facts
    ~query:(Logic.Parser.parse_query "? e(QX,QX).")

let model_zoo_block rng =
  let zoo =
    List.concat_map
      (fun name ->
        let e = entry name in
        List.init 8 (fun i ->
            { stratum = name;
              cmd = Model Finitemodel.Pipeline.default_params.chase_depth;
              text = zoo_variant rng e ~copies:(i + 1);
              expect = Some e.Zoo.expectation }))
      zoo_fc
  in
  let random =
    List.map
      (fun s ->
        { stratum = "random";
          cmd = Model Finitemodel.Pipeline.default_params.chase_depth;
          text = random_pair rng s;
          expect = None })
      random_pool
  in
  Array.to_list (shuffle rng (Array.of_list (zoo @ random)))

(* ------------------------------ model-tree ----------------------------- *)

(* Example 9 at depths 16..22: skeletons of 512..4,096 elements.  Depths
   below 16 are left out on purpose — there the first prefix is too
   shallow and the pipeline walks its depth-retry schedule up to the
   20,000-element cap, which costs seconds per request and measures the
   retry policy rather than the construction. *)
let tree_strata = [ (16, 6); (18, 6); (20, 5); (22, 3) ]

let model_tree_block rng =
  let e = entry "ex9" in
  Array.to_list
    (shuffle rng
       (Array.of_list
          (List.concat_map
             (fun (depth, n) ->
               List.init n (fun _ ->
                   { stratum = Printf.sprintf "d%d" depth;
                     cmd = Model depth;
                     text = zoo_variant rng e ~copies:1;
                     expect = Some e.Zoo.expectation }))
             tree_strata)))

(* ------------------------------ judge-zoo ------------------------------ *)

(* Per block of 10: seven small FC variants, two remark3-family (kappa
   rewriting diverges to its step cap) and one sec55-family (exhaustive
   small-model absence).  The median request is the middle of the three
   ex7 requests, which sit between cheaper and dearer small entries, so
   it measures one shape rather than whichever entry noise ranks there. *)
let judge_small =
  [ ("weakly_acyclic", 1); ("linear", 1); ("sticky", 1); ("ex7", 1);
    ("ex7", 1); ("ex7", 1); ("ex1", 1) ]

let judge_zoo_block rng =
  let req stratum name copies =
    let e = entry name in
    { stratum; cmd = Judge; text = zoo_variant rng e ~copies;
      expect = Some e.Zoo.expectation }
  in
  Array.to_list
    (shuffle rng
       (Array.of_list
          (List.map (fun (name, k) -> req "small" name k) judge_small
          @ [ req "remark3" "remark3" 1; req "remark3" "remark3" 2;
              req "sec55" "sec55" 1 ])))

(* The requests of some strata of a batch workload, block after block,
   endlessly. *)
let rec only block ~strata rng () =
  Seq.append
    (List.to_seq (List.filter (fun b -> List.mem b.stratum strata) (block rng)))
    (only block ~strata rng) ()

(* ----------------------------- serve-churn ----------------------------- *)

(* One warm session: transitive closure over a 60-node, 90-edge random
   digraph.  The graph and the write trace have one fixed shape (their
   own generator seed); --seed renames the nodes and draws the read
   anchors and the read/write interleaving.  The DRed cost of a retract
   depends on the whole closure, so a seed-drawn graph would make write
   cost a property of the seed rather than of the code.

   The write trace is periodic: [churn_writes] writes that alternate
   asserting two fresh edges and retracting two present ones, then the
   same writes undone in reverse order, which restores the base graph.
   Each period is [period_blocks] blocks of 8 reads and 2 writes. *)
let tc_rule = "e(X,Y), e(Y,Z) -> e(X,Z)."
let nodes = 60
let churn_writes = 50
let shape_seed = 7

type edge = int * int

type serve_req =
  | Read of int * int  (** [? e(vA,Y), e(Y,vB).] *)
  | Write of { assert_ : bool; edges : edge list }

type serve = {
  name : int -> string;  (** node renaming drawn from the seed *)
  base : edge list;
  period : serve_req array;
}

let base_graph () =
  let g = Workload.Gen.random_digraph ~nodes ~edges:90 ~seed:shape_seed () in
  List.map
    (fun a ->
      match Logic.Atom.args a with
      | [ x; y ] ->
          let id t =
            let s = Option.get (Logic.Term.as_cst t) in
            int_of_string (String.sub s 1 (String.length s - 1))
          in
          (id x, id y)
      | _ -> assert false)
    (Structure.Instance.to_atoms g)

let write_trace base =
  let rng = Random.State.make [| shape_seed; 22 |] in
  let present = Hashtbl.create 256 in
  List.iter (fun e -> Hashtbl.replace present e ()) base;
  let rec fresh acc =
    if List.length acc = 2 then List.rev acc
    else
      let e = (Random.State.int rng nodes, Random.State.int rng nodes) in
      if Hashtbl.mem present e || List.mem e acc then fresh acc
      else fresh (e :: acc)
  in
  let forward =
    List.init churn_writes (fun i ->
        if i mod 2 = 0 then begin
          let edges = fresh [] in
          List.iter (fun e -> Hashtbl.replace present e ()) edges;
          Write { assert_ = true; edges }
        end
        else begin
          let all =
            Array.of_list
              (List.sort compare
                 (Hashtbl.fold (fun e () acc -> e :: acc) present []))
          in
          let a = Random.State.int rng (Array.length all) in
          let b =
            (a + 1 + Random.State.int rng (Array.length all - 1))
            mod Array.length all
          in
          let edges = [ all.(a); all.(b) ] in
          List.iter (Hashtbl.remove present) edges;
          Write { assert_ = false; edges }
        end)
  in
  let undo = function
    | Write w -> Write { w with assert_ = not w.assert_ }
    | r -> r
  in
  forward @ List.rev_map undo forward

(* 2 x churn_writes writes, two per block *)
let period_blocks = churn_writes

let serve_churn rng =
  let perm = shuffle rng (Array.init nodes Fun.id) in
  let t = tag rng in
  let name i = Printf.sprintf "%s%d" t perm.(i) in
  let base = base_graph () in
  let writes = Array.of_list (write_trace base) in
  let next = ref 0 in
  let block _ =
    (* the two writes keep their trace order; reads fill the other slots *)
    let is_write = shuffle rng (Array.init 10 (fun i -> i < 2)) in
    Array.init 10 (fun i ->
        if is_write.(i) then begin
          incr next;
          writes.(!next - 1)
        end
        else Read (Random.State.int rng nodes, Random.State.int rng nodes))
  in
  { name; base; period = Array.concat (List.init period_blocks block) }

let edge_atoms name edges =
  String.concat " "
    (List.map (fun (a, b) -> Printf.sprintf "e(%s,%s)." (name a) (name b)) edges)

let serve_program s = tc_rule ^ "\n" ^ edge_atoms s.name s.base ^ "\n"

let read_query s a b =
  Printf.sprintf "? e(%s,Y), e(Y,%s)." (s.name a) (s.name b)
