(* The ternary reduction (Section 5.2, Theorem 4): every theory can be
   rewritten over a ternary signature by encoding wide atoms as chains, in
   "the good old Prolog way" — lists of arguments get names.

   A predicate P of arity k > 3 is represented by chain predicates
   P_1(x1, x2, w1), P_2(w1, x3, w2), ..., P_last(w_{k-3}, x_{k-1}, xk)
   (each chain predicate consumes one further argument; the last one keeps
   two).  An atom P(t1..tk) anywhere (body, head, fact, query) becomes the
   conjunction of its chain atoms with fresh link variables.

   Existential heads are split into a cascade of rules as in the paper's
   example: each chain link is demanded by its own TGD whose body repeats
   the original body plus the links created so far. *)

open Bddfc_logic
open Bddfc_structure

type encoding = {
  theory : Theory.t;
  chain_preds : (Pred.t * Pred.t list) list; (* wide pred -> chain preds *)
}

let needs_encoding p = Pred.arity p > 3

let chain_preds_for p =
  let k = Pred.arity p in
  assert (k > 3);
  (* number of chain atoms: first consumes 2 args, each next consumes 1 *)
  let n = k - 2 in
  List.init n (fun i ->
      Pred.invented (Printf.sprintf "%s_c%d" (Pred.name p) i) 3)
  |> fun l ->
  (* the last chain predicate has no outgoing link: arity 3 with the last
     two original arguments; keep arity 3 uniformly by convention
     P_last(w, x_{k-1}, x_k) *)
  l

(* Encode one atom; [fresh] supplies link variables.  Returns the list of
   chain atoms. *)
let encode_atom fresh atom =
  let p = Atom.pred atom in
  if not (needs_encoding p) then [ atom ]
  else begin
    let chains = chain_preds_for p in
    let args = Atom.args atom in
    let rec go chain_list args prev acc =
      match (chain_list, args) with
      | [ last ], [ x; y ] -> List.rev (Atom.make last [ prev; x; y ] :: acc)
      | c :: rest, x :: more ->
          let w = Term.Var (fresh ()) in
          go rest more w (Atom.make c [ prev; x; w ] :: acc)
      | _ -> invalid_arg "Ternary.encode_atom: arity mismatch"
    in
    match (chains, args) with
    | c0 :: rest, x1 :: x2 :: more ->
        let w = Term.Var (fresh ()) in
        (match (rest, more) with
        | [], _ -> invalid_arg "Ternary.encode_atom: arity <= 3"
        | _ -> go rest more w [ Atom.make c0 [ x1; x2; w ] ])
    | _ -> invalid_arg "Ternary.encode_atom: bad chain"
  end

let fresh_link () = Term.fresh_var ~prefix:"_L" ()

let encode_body atoms = List.concat_map (encode_atom fresh_link) atoms

(* Encode a rule.  Datalog rules and existential rules with narrow heads
   encode bodies only.  A wide existential head P(t-bar) with existential
   variables becomes a cascade: each chain atom is demanded by its own
   rule whose body is the encoded original body plus the previously
   demanded chain atoms (exactly the paper's three-rule example). *)
let encode_rule rule =
  let body = encode_body (Rule.body rule) in
  match Rule.head rule with
  | [ head ] when needs_encoding (Atom.pred head) && Rule.is_existential rule
    ->
      let chain = encode_atom fresh_link head in
      let rec cascade prefix i = function
        | [] -> []
        | c :: rest ->
            let r =
              Rule.make
                ~name:(Printf.sprintf "%s_t%d" (Rule.name rule) i)
                ~body:(body @ List.rev prefix)
                ~head:[ c ] ()
            in
            r :: cascade (c :: prefix) (i + 1) rest
      in
      cascade [] 0 chain
  | heads ->
      [ Rule.make ~name:(Rule.name rule) ~body
          ~head:(List.concat_map (encode_atom fresh_link) heads)
          () ]

let encode theory =
  let wide =
    Pred.Set.filter needs_encoding
      (Signature.pred_set (Theory.signature theory))
  in
  {
    theory = Theory.make (List.concat_map encode_rule (Theory.rules theory));
    chain_preds =
      List.map (fun p -> (p, chain_preds_for p)) (Pred.Set.elements wide);
  }

(* Encode a ground instance: wide facts get fresh list-naming elements. *)
let encode_instance inst =
  let out = Instance.create () in
  let link_count = ref 0 in
  Instance.iter_facts
    (fun f ->
      let p = Fact.pred f in
      let translate id =
        match Instance.const_name inst id with
        | Some c -> Instance.const out c
        | None -> Instance.const out ("_imp" ^ string_of_int id)
      in
      if not (needs_encoding p) then
        ignore
          (Instance.add_fact out
             (Fact.make p (Array.map translate (Fact.args f))))
      else begin
        let chains = chain_preds_for p in
        let args = Array.to_list (Fact.args f) |> List.map translate in
        let fresh () =
          incr link_count;
          Instance.const out (Printf.sprintf "_lst%d" !link_count)
        in
        let rec go chain_list args prev =
          match (chain_list, args) with
          | [ last ], [ x; y ] ->
              ignore (Instance.add_fact out (Fact.make last [| prev; x; y |]))
          | c :: rest, x :: more ->
              let w = fresh () in
              ignore (Instance.add_fact out (Fact.make c [| prev; x; w |]));
              go rest more w
          | _ -> invalid_arg "Ternary.encode_instance"
        in
        match (chains, args) with
        | c0 :: rest, x1 :: x2 :: more ->
            let w = fresh () in
            ignore (Instance.add_fact out (Fact.make c0 [| x1; x2; w |]));
            go rest more w
        | _ -> invalid_arg "Ternary.encode_instance"
      end)
    inst;
  out

(* Encode a query: wide atoms become chain conjunctions with fresh
   existential link variables. *)
let encode_query (q : Cq.t) =
  Cq.make ~answer:(Cq.answer q) (encode_body (Cq.body q))
