(* GraphViz (DOT) export of binary structures: constants as boxes,
   labelled nulls as circles, binary facts as labelled edges, unary facts
   collected into the node label.  Colors ({!Color} predicates) are
   rendered as fill colors so quotient and coloring pipelines can be
   eyeballed. *)

open Bddfc_logic

let palette =
  [| "#a6cee3"; "#b2df8a"; "#fb9a99"; "#fdbf6f"; "#cab2d6"; "#ffff99";
     "#1f78b4"; "#33a02c"; "#e31a1c"; "#ff7f00"; "#6a3d9a"; "#b15928" |]

let color_of_hue h = palette.(h mod Array.length palette)

let escape s =
  String.concat "\\\"" (String.split_on_char '"' s)

let node_name id = "n" ^ string_of_int id

let to_buffer inst =
  let g = Bgraph.make inst in
  let buf = Buffer.create 1024 in
  Buffer.add_string buf "digraph bddfc {\n";
  Buffer.add_string buf "  rankdir=LR;\n  node [fontsize=10];\n";
  List.iter
    (fun id ->
      let hues, plain =
        List.partition_map
          (fun p ->
            match Color.of_pred p with
            | Some (h, _) -> Either.Left h
            | None -> Either.Right p)
          (Bgraph.unary_labels g id)
      in
      let base =
        match Instance.const_name inst id with
        | Some c -> c
        | None -> "·" ^ string_of_int id
      in
      let label =
        match plain with
        | [] -> base
        | ps ->
            base ^ "\\n"
            ^ String.concat "," (List.map Pred.name ps)
      in
      let shape =
        if Instance.is_const inst id then "box" else "ellipse"
      in
      let fill =
        match hues with
        | h :: _ ->
            Printf.sprintf ", style=filled, fillcolor=\"%s\"" (color_of_hue h)
        | [] -> ""
      in
      Buffer.add_string buf
        (Printf.sprintf "  %s [label=\"%s\", shape=%s%s];\n" (node_name id)
           (escape label) shape fill))
    (Instance.elements inst);
  Instance.iter_facts
    (fun f ->
      match Fact.args f with
      | [| x; y |] ->
          Buffer.add_string buf
            (Printf.sprintf "  %s -> %s [label=\"%s\"];\n" (node_name x)
               (node_name y)
               (escape (Pred.name (Fact.pred f))))
      | _ -> () (* non-binary facts are omitted from the drawing *))
    inst;
  Buffer.add_string buf "}\n";
  buf

let to_string inst = Buffer.contents (to_buffer inst)

let to_file path inst =
  let oc = open_out path in
  Buffer.output_buffer oc (to_buffer inst);
  close_out oc
