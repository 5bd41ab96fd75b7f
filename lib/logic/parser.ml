(* A small surface syntax for Datalog-exists programs, Prolog-flavoured:

     % Example 1 from the paper
     e(X,Y) -> exists Z. e(Y,Z).
     e(X,Y), e(Y,Z), e(Z,X) -> exists T. u(X,T).
     e(a,b).                  % a fact (ground atom)
     ? e(X,Y), u(Y,Y).        % a Boolean query
     ?(X) e(X,Y).             % a query with answer variables

   Identifiers starting with an uppercase letter (or '_') are variables;
   lowercase identifiers are predicate names or constants depending on
   position.  '%' starts a comment running to end of line.

   Every token carries a 1-based line:column location; atoms and rules
   keep the location of their leading token, and parse errors carry the
   location of the offending token, so downstream diagnostics (and the
   CLI) can point at FILE:LINE:COL. *)

type program = {
  rules : Rule.t list;
  facts : Atom.t list;
  queries : Cq.t list;
}

exception Parse_error of { loc : Loc.t option; msg : string }

let error ?loc fmt =
  Format.kasprintf (fun msg -> raise (Parse_error { loc; msg })) fmt

let error_message = function
  | Parse_error { loc = Some l; msg } -> Fmt.str "%a: %s" Loc.pp l msg
  | Parse_error { loc = None; msg } -> msg
  | _ -> invalid_arg "Parser.error_message: not a Parse_error"

(* ------------------------------------------------------------------ *)
(* Lexer                                                              *)
(* ------------------------------------------------------------------ *)

type token =
  | Tident of string (* lowercase identifier *)
  | Tvar of string (* uppercase / underscore identifier *)
  | Tlparen
  | Trparen
  | Tcomma
  | Tarrow
  | Tdot
  | Tquestion
  | Texists
  | Teof

let pp_token ppf = function
  | Tident s -> Fmt.pf ppf "identifier %s" s
  | Tvar s -> Fmt.pf ppf "variable %s" s
  | Tlparen -> Fmt.string ppf "'('"
  | Trparen -> Fmt.string ppf "')'"
  | Tcomma -> Fmt.string ppf "','"
  | Tarrow -> Fmt.string ppf "'->'"
  | Tdot -> Fmt.string ppf "'.'"
  | Tquestion -> Fmt.string ppf "'?'"
  | Texists -> Fmt.string ppf "'exists'"
  | Teof -> Fmt.string ppf "end of input"

let is_ident_start c = ('a' <= c && c <= 'z') || ('A' <= c && c <= 'Z') || c = '_'

(* '#' is no identifier character: it marks invented symbols ([Pred.mark]) *)
let is_ident_char c =
  is_ident_start c || ('0' <= c && c <= '9') || c = '\''

let tokenize src =
  let n = String.length src in
  let toks = ref [] in
  let line = ref 1 in
  let bol = ref 0 in (* byte offset of the current line's start *)
  let i = ref 0 in
  let loc_at pos = Loc.make ~line:!line ~col:(pos - !bol + 1) in
  let emit ?(at = !i) t = toks := (t, loc_at at) :: !toks in
  while !i < n do
    let c = src.[!i] in
    if c = '\n' then begin
      incr line;
      incr i;
      bol := !i
    end
    else if c = ' ' || c = '\t' || c = '\r' then incr i
    else if c = '%' then begin
      while !i < n && src.[!i] <> '\n' do
        incr i
      done
    end
    else if c = '(' then (emit Tlparen; incr i)
    else if c = ')' then (emit Trparen; incr i)
    else if c = ',' then (emit Tcomma; incr i)
    else if c = '.' then (emit Tdot; incr i)
    else if c = '?' then (emit Tquestion; incr i)
    else if c = '-' && !i + 1 < n && src.[!i + 1] = '>' then begin
      emit Tarrow;
      i := !i + 2
    end
    else if is_ident_start c then begin
      let start = !i in
      while !i < n && is_ident_char src.[!i] do
        incr i
      done;
      let word = String.sub src start (!i - start) in
      if String.equal word "exists" then emit ~at:start Texists
      else if c = '_' || (c >= 'A' && c <= 'Z') then emit ~at:start (Tvar word)
      else emit ~at:start (Tident word)
    end
    else error ~loc:(loc_at !i) "unexpected character %C" c
  done;
  emit Teof;
  List.rev !toks

(* ------------------------------------------------------------------ *)
(* Parser                                                             *)
(* ------------------------------------------------------------------ *)

type state = { mutable toks : (token * Loc.t) list }

let peek st = match st.toks with (t, _) :: _ -> t | [] -> Teof
let loc_of st = match st.toks with (_, l) :: _ -> l | [] -> Loc.none

let advance st =
  match st.toks with _ :: rest -> st.toks <- rest | [] -> ()

let expect st tok =
  let got = peek st in
  if got = tok then advance st
  else
    error ~loc:(loc_of st) "expected %a but found %a" pp_token tok pp_token
      got

let parse_term st =
  match peek st with
  | Tvar x ->
      advance st;
      Term.Var x
  | Tident c ->
      advance st;
      Term.Cst c
  | t -> error ~loc:(loc_of st) "expected a term, found %a" pp_token t

let parse_atom st =
  match peek st with
  | Tident name ->
      let loc = loc_of st in
      advance st;
      if peek st = Tlparen then begin
        advance st;
        let rec args acc =
          let t = parse_term st in
          match peek st with
          | Tcomma ->
              advance st;
              args (t :: acc)
          | Trparen ->
              advance st;
              List.rev (t :: acc)
          | tok ->
              error ~loc:(loc_of st) "expected ',' or ')', found %a" pp_token
                tok
        in
        Atom.app ~loc name (args [])
      end
      else Atom.app ~loc name [] (* propositional atom *)
  | t -> error ~loc:(loc_of st) "expected an atom, found %a" pp_token t

let parse_atom_list st =
  let rec go acc =
    let a = parse_atom st in
    if peek st = Tcomma then begin
      advance st;
      go (a :: acc)
    end
    else List.rev (a :: acc)
  in
  go []

let parse_var_list st =
  let rec go acc =
    match peek st with
    | Tvar x -> (
        advance st;
        match peek st with
        | Tcomma ->
            advance st;
            go (x :: acc)
        | _ -> List.rev (x :: acc))
    | t -> error ~loc:(loc_of st) "expected a variable, found %a" pp_token t
  in
  go []

(* A statement is a fact, a rule or a query, terminated by '.'. *)
let parse_statement st =
  let start_loc = loc_of st in
  match peek st with
  | Tquestion ->
      advance st;
      let answer =
        if peek st = Tlparen then begin
          advance st;
          let vs = parse_var_list st in
          expect st Trparen;
          vs
        end
        else []
      in
      let body = parse_atom_list st in
      expect st Tdot;
      `Query (Cq.make ~answer body)
  | _ -> (
      let atoms = parse_atom_list st in
      match peek st with
      | Tdot ->
          advance st;
          (match List.find_opt (fun a -> not (Atom.is_ground a)) atoms with
          | Some a -> error ~loc:(Atom.loc a) "facts must be ground"
          | None -> ());
          `Facts atoms
      | Tarrow ->
          advance st;
          let declared_ex =
            if peek st = Texists then begin
              advance st;
              let vs = parse_var_list st in
              expect st Tdot;
              Some (Sset.of_list vs)
            end
            else None
          in
          let head = parse_atom_list st in
          expect st Tdot;
          `Rule (Rule.make ~loc:start_loc ?declared_ex ~body:atoms ~head ())
      | t -> error ~loc:(loc_of st) "expected '.' or '->', found %a" pp_token t)

let parse_program src =
  let st = { toks = tokenize src } in
  let rec go rules facts queries =
    if peek st = Teof then
      { rules = List.rev rules;
        facts = List.rev facts;
        queries = List.rev queries;
      }
    else
      match parse_statement st with
      | `Rule r -> go (r :: rules) facts queries
      | `Facts fs -> go rules (List.rev_append fs facts) queries
      | `Query q -> go rules facts (q :: queries)
  in
  go [] [] []

let parse_rule src =
  match (parse_program src).rules with
  | [ r ] -> r
  | _ -> error "parse_rule: expected exactly one rule"

let parse_theory src = Theory.make (parse_program src).rules

let parse_query src =
  match (parse_program src).queries with
  | [ q ] -> q
  | _ -> error "parse_query: expected exactly one query"

let parse_atoms src =
  let p = parse_program src in
  if p.rules <> [] || p.queries <> [] then
    error "parse_atoms: expected facts only";
  p.facts
