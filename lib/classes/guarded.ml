(* Guarded Datalog-exists programs are "binary in disguise" (Section 5.6).
   This module implements the paper's rewriting of a guarded program into
   a binary one, step by step:

     (ii)  parent links: each tuple generating predicate teaches the new
           element who its parents are, through binary predicates F_i;
     (iii) (♠11) every rule is expanded with F-link atoms connecting each
           non-leading body variable to the leading variable y (the
           rightmost variable of the guard), one copy per choice of
           parent indices;
     (iv)  one rule head per TGP (our TGPs are per-rule, which subsumes it);
     (vi)  a TGD Psi => exists z. R(x1..xk, z) becomes
           Psi => exists z. E_r(y, z)  and  Psi, E_r(y,z) => W_r(z),
           plus the parent-learning rules (♦)
           F_j(x_i, y), E_r(y, z) => F_i(x_i, z); TGP atoms in bodies are
           replaced by F_1(x1,z), ..., F_k(xk,z), W_r(z);
     (vii) wide non-TGP atoms are remembered monadically: Q(w1..wl) in a
           rule with leading variable y becomes Q_{t1..tl}(y) where t_j is
           the parent index linking w_j to y (0 = w_j is y itself), with
           synchronization rules letting every element that shares the
           parents learn the fact.

   Supported inputs (checked; [Unsupported] otherwise): single-head
   guarded rules, each existential rule with exactly one existential
   variable in the last head position and pairwise-distinct variable
   arguments, rules respecting argument order (step (i) is a check, not a
   rewrite), and no constants inside wide atoms.  The paper's running
   assumption that D is hardwired corresponds to seeding the chase from
   unary facts. *)

open Bddfc_logic

exception Unsupported of string

let unsupported fmt = Format.kasprintf (fun s -> raise (Unsupported s)) fmt

(* ----------------------------------------------------------------- *)
(* Preconditions                                                      *)
(* ----------------------------------------------------------------- *)

let guard_of rule =
  let vars = Rule.body_vars rule in
  match
    List.find_opt (fun a -> Rule.SS.subset vars (Atom.var_set a)) (Rule.body rule)
  with
  | Some g -> g
  | None -> unsupported "rule %s is not guarded" (Rule.name rule)

(* The leading variable: the rightmost variable of the guard. *)
let leading_var rule =
  let g = guard_of rule in
  match List.rev (Atom.vars g) with
  | y :: _ -> y
  | [] -> unsupported "rule %s has a ground guard" (Rule.name rule)

(* Step (i), as a check: x left of y somewhere implies never right of y. *)
let check_order_respect rule =
  let atoms = Rule.body rule @ Rule.head rule in
  let before = Hashtbl.create 16 in
  List.iter
    (fun a ->
      let vars = Atom.vars a in
      List.iteri
        (fun i x ->
          List.iteri
            (fun j y -> if i < j && x <> y then Hashtbl.replace before (x, y) ())
            vars)
        vars)
    atoms;
  Hashtbl.iter
    (fun (x, y) () ->
      if Hashtbl.mem before (y, x) then
        unsupported "rule %s does not respect argument order (%s, %s)"
          (Rule.name rule) x y)
    before

let check_rule rule =
  if not (Rule.is_single_head rule) then
    unsupported "rule %s is multi-head" (Rule.name rule);
  check_order_respect rule;
  ignore (guard_of rule);
  if Rule.is_existential rule then begin
    let exvars = Rule.SS.elements (Rule.existential_vars rule) in
    let head = List.hd (Rule.head rule) in
    match (exvars, List.rev (Atom.args head)) with
    | [ z ], Term.Var z' :: _ when String.equal z z' ->
        let args = Atom.args head in
        let vars = List.filter_map Term.as_var args in
        if List.length vars <> List.length args then
          unsupported "rule %s: constants in an existential head"
            (Rule.name rule);
        if List.length (List.sort_uniq compare vars) <> List.length vars then
          unsupported "rule %s: repeated variables in an existential head"
            (Rule.name rule)
    | _ ->
        unsupported
          "rule %s: expected exactly one existential variable, last in the \
           head"
          (Rule.name rule)
  end

(* ----------------------------------------------------------------- *)
(* The transformation                                                 *)
(* ----------------------------------------------------------------- *)

type result = {
  theory : Theory.t;
  max_parent_index : int;
  monadic_preds : Pred.t list;
}

let f_pred i = Pred.make (Printf.sprintf "f%d" i) 2

(* All functions from [vars] to [1..k]. *)
let rec tag_choices k = function
  | [] -> [ [] ]
  | x :: rest ->
      let tails = tag_choices k rest in
      List.concat_map
        (fun i -> List.map (fun t -> (x, i) :: t) tails)
        (List.init k (fun i -> i + 1))

(* The most rule copies one rule's ♠11 expansion may produce. *)
let max_copies = 512

let to_binary theory =
  List.iter check_rule (Theory.rules theory);
  let rules = Theory.rules theory in
  (* K - 1: the largest possible parent index *)
  let kmax =
    max 1 (Signature.max_arity (Theory.signature theory) - 1)
  in
  (* TGP head predicates, per rule (per-rule E/W names give step (iv)) *)
  let tgp_preds =
    List.filter_map
      (fun r ->
        if Rule.is_existential r then
          Some (Atom.pred (List.hd (Rule.head r)), r)
        else None)
      rules
  in
  (* only TGPs of arity > 2 need eliminating; binary ones are already in
     the target signature ("the program does not have TGPs of arity higher
     than 2 any more") *)
  let is_wide_tgp p =
    Pred.arity p > 2 && List.exists (fun (p', _) -> Pred.equal p p') tgp_preds
  in
  let e_pred r = Pred.make ("e_" ^ Rule.name r) 2 in
  let w_pred r = Pred.make ("w_" ^ Rule.name r) 1 in
  (* keyed by (name, arity), not by the symbol: the fold below orders the
     synchronization rules, and a symbol's hash is its interning id *)
  let monadics = Hashtbl.create 16 in
  let monadic q tags =
    let name =
      Pred.name q ^ "_m"
      ^ String.concat "" (List.map string_of_int tags)
    in
    let p = Pred.make name 1 in
    Hashtbl.replace monadics (Pred.name p, Pred.arity p) (p, (q, tags));
    p
  in
  (* Replace a TGP atom in a body by its F/W expansion (step vi).  The
     last argument is the created element. *)
  let expand_tgp_atom a =
    let rule_of =
      match List.find_opt (fun (p, _) -> Pred.equal p (Atom.pred a)) tgp_preds with
      | Some (_, r) -> r
      | None -> assert false
    in
    match List.rev (Atom.args a) with
    | z :: parents_rev ->
        let parents = List.rev parents_rev in
        List.mapi (fun i t -> Atom.make (f_pred (i + 1)) [ t; z ]) parents
        @ [ Atom.make (w_pred rule_of) [ z ] ]
    | [] -> assert false
  in
  (* Monadize a wide non-TGP atom under a tag assignment (step vii).
     [tags] maps non-leading variables to parent indices; the leading
     variable has tag 0. *)
  let monadize_atom y tags a =
    let arg_tags =
      List.map
        (fun t ->
          match t with
          | Term.Var x when String.equal x y -> 0
          | Term.Var x -> (
              match List.assoc_opt x tags with
              | Some i -> i
              | None ->
                  unsupported "variable %s of %a has no parent link" x Atom.pp a)
          | Term.Cst _ ->
              unsupported "constant inside wide atom %a" Atom.pp a)
        (Atom.args a)
    in
    Atom.make (monadic (Atom.pred a) arg_tags) [ Term.Var y ]
  in
  (* Rewrite one rule copy under one tag choice. *)
  let rewrite_copy idx rule tags =
    let y = leading_var rule in
    let name = Printf.sprintf "%s_c%d" (Rule.name rule) idx in
    let f_links =
      List.map (fun (x, i) -> Atom.make (f_pred i) [ Term.Var x; Term.Var y ]) tags
    in
    let transform_body_atom a =
      let p = Atom.pred a in
      if is_wide_tgp p then expand_tgp_atom a
      else if Pred.arity p <= 2 then [ a ]
      else [ monadize_atom y tags a ]
    in
    let body =
      List.concat_map transform_body_atom (Rule.body rule) @ f_links
    in
    if Rule.is_datalog rule then begin
      let head = List.hd (Rule.head rule) in
      let head' =
        if Pred.arity (Atom.pred head) <= 2 then [ head ]
        else if is_wide_tgp (Atom.pred head) then
          unsupported "rule %s: datalog head with TGP predicate" (Rule.name rule)
        else [ monadize_atom y tags head ]
      in
      [ Rule.make ~name ~body ~head:head' () ]
    end
    else begin
      let head = List.hd (Rule.head rule) in
      if Atom.arity head <= 2 then
        (* binary (or unary) TGP heads are already in the target
           signature; only the body changes *)
        [ Rule.make ~name ~body ~head:[ head ] () ]
      else begin
        let z =
          match List.rev (Atom.args head) with
          | Term.Var z :: _ -> z
          | _ -> assert false
        in
        let e = e_pred rule and w = w_pred rule in
        let ez = Atom.make e [ Term.Var y; Term.Var z ] in
        [ Rule.make ~name ~body ~head:[ ez ] ();
          Rule.make ~name:(name ^ "_w") ~body:(body @ [ ez ])
            ~head:[ Atom.make w [ Term.Var z ] ]
            ();
        ]
      end
    end
  in
  let per_rule rule =
    let y = leading_var rule in
    let non_leading =
      List.filter (fun x -> x <> y) (Rule.SS.elements (Rule.body_vars rule))
    in
    let choices = tag_choices kmax non_leading in
    if List.length choices > max_copies then
      unsupported "rule %s would expand into %d copies (cap %d)"
        (Rule.name rule) (List.length choices) max_copies;
    List.concat (List.mapi (fun i tags -> rewrite_copy i rule tags) choices)
  in
  let core_rules = List.concat_map per_rule rules in
  (* parent-learning rules (♦) for each existential rule *)
  let parent_rules =
    List.concat_map
      (fun rule ->
        if Rule.is_datalog rule then []
        else if Atom.arity (List.hd (Rule.head rule)) <= 2 then begin
          (* binary TGP head R(x, z): the parent link is read off the atom *)
          match Atom.args (List.hd (Rule.head rule)) with
          | [ Term.Var x; Term.Var z ] ->
              [ Rule.make
                  ~name:(Rule.name rule ^ "_parent")
                  ~body:[ List.hd (Rule.head rule) ]
                  ~head:[ Atom.make (f_pred 1) [ Term.Var x; Term.Var z ] ]
                  () ]
          | _ -> []
        end
        else begin
          let y = leading_var rule in
          let head = List.hd (Rule.head rule) in
          let e = e_pred rule in
          let z = Term.fresh_var ~prefix:"_Zp" () in
          let parents =
            match List.rev (Atom.args head) with
            | _ :: rev -> List.rev (List.filter_map Term.as_var rev)
            | [] -> assert false
          in
          List.concat
            (List.mapi
               (fun i0 xi ->
                 let i = i0 + 1 in
                 if String.equal xi y then
                   [ Rule.make
                       ~name:(Printf.sprintf "%s_self%d" (Rule.name rule) i)
                       ~body:[ Atom.make e [ Term.Var y; Term.Var z ] ]
                       ~head:[ Atom.make (f_pred i) [ Term.Var y; Term.Var z ] ]
                       () ]
                 else
                   List.init kmax (fun j0 ->
                       let j = j0 + 1 in
                       Rule.make
                         ~name:
                           (Printf.sprintf "%s_learn%d_%d" (Rule.name rule) i j)
                         ~body:
                           [ Atom.make (f_pred j) [ Term.Var xi; Term.Var y ];
                             Atom.make e [ Term.Var y; Term.Var z ];
                           ]
                         ~head:[ Atom.make (f_pred i) [ Term.Var xi; Term.Var z ] ]
                         ()))
               parents)
        end)
      rules
  in
  (* synchronization rules (step vii): every monadic fact spreads to every
     element sharing the same parents under any occurring tag tuple *)
  let mon_list = Hashtbl.fold (fun _ pqt acc -> pqt :: acc) monadics [] in
  let sync_rules =
    List.concat_map
      (fun (pi, (q, ti)) ->
        List.filter_map
          (fun (pj, (q', tj)) ->
            if not (Pred.equal q q') || pi = pj then None
            else begin
              let y = "Y_s" and z = "Z_s" in
              let xs =
                List.mapi (fun idx _ -> "X_s" ^ string_of_int idx) ti
              in
              (* tag 0 means "the argument is the leading element itself":
                 merge the variables accordingly (union-find style) *)
              let parent = Hashtbl.create 8 in
              let rec find v =
                match Hashtbl.find_opt parent v with
                | Some v' when v' <> v -> find v'
                | _ -> v
              in
              let union a b =
                let ra = find a and rb = find b in
                if ra <> rb then Hashtbl.replace parent ra rb
              in
              List.iteri
                (fun idx x ->
                  if List.nth ti idx = 0 then union x y;
                  if List.nth tj idx = 0 then union x z)
                xs;
              let v name = Term.Var (find name) in
              let links tags target =
                List.concat
                  (List.map2
                     (fun x t ->
                       if t = 0 then []
                       else [ Atom.make (f_pred t) [ v x; v target ] ])
                     xs tags)
              in
              let body =
                links ti y @ links tj z @ [ Atom.make pi [ v y ] ]
              in
              let head = [ Atom.make pj [ v z ] ] in
              (* the head variable must be bound by the body *)
              let head_ok =
                Cq.SS.subset
                  (Atom.vars_of_atoms head)
                  (Atom.vars_of_atoms body)
              in
              if not head_ok then None
              else
                Some
                  (Rule.make
                     ~name:
                       (Printf.sprintf "sync_%s_%s" (Pred.name pi)
                          (Pred.name pj))
                     ~body ~head ())
            end)
          mon_list)
      mon_list
  in
  {
    theory = Theory.make (core_rules @ parent_rules @ sync_rules);
    max_parent_index = kmax;
    monadic_preds = List.map fst mon_list;
  }
