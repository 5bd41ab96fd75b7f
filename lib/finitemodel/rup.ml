(* Reverse-unit-propagation checking.  Each lemma is re-derived by
   assigning its literals false and unit-propagating over the input
   clauses and the lemmas accepted so far; propagation must reach a
   falsified clause.  Occurrence lists make one propagation cost the
   clauses it touches, not the whole database. *)

let normalize c = Array.of_list (List.sort_uniq compare (Array.to_list c))

let check clauses log =
  let nvars =
    List.fold_left
      (Array.fold_left (fun m l -> max m (abs l)))
      0 (List.rev_append clauses log)
  in
  let index l = if l > 0 then 2 * l else (2 * -l) + 1 in
  (* occ.(index l): the database clauses containing literal [l] *)
  let occ = Array.make ((2 * nvars) + 2) [] in
  (* clauses of fewer than two literals propagate before any assignment *)
  let short = ref [] in
  let add c =
    let c = normalize c in
    if Array.length c < 2 then short := c :: !short;
    Array.iter (fun l -> occ.(index l) <- c :: occ.(index l)) c
  in
  List.iter add clauses;
  let value = Array.make (nvars + 1) 0 in
  let lit l = if l > 0 then value.(l) else -value.(-l) in
  let trail = ref [] in
  (* Make [l] true and propagate; [false] once a clause is falsified. *)
  let rec set l =
    match lit l with
    | 1 -> true
    | -1 -> false
    | _ ->
        value.(abs l) <- (if l > 0 then 1 else -1);
        trail := abs l :: !trail;
        List.for_all visit occ.(index (-l))
  (* A clause that just lost a literal: conflict, unit, or nothing. *)
  and visit c =
    let open_lits = ref 0 and open_lit = ref 0 and sat = ref false in
    Array.iter
      (fun l ->
        match lit l with
        | 1 -> sat := true
        | 0 ->
            incr open_lits;
            open_lit := l
        | _ -> ())
      c;
    !sat || (!open_lits = 1 && set !open_lit) || !open_lits > 1
  in
  let rup lemma =
    let consistent =
      List.for_all
        (fun c -> Array.length c = 1 && set c.(0))
        !short
      && Array.for_all (fun l -> set (-l)) lemma
    in
    List.iter (fun v -> value.(v) <- 0) !trail;
    trail := [];
    not consistent
  in
  let rec replay = function
    | [] -> false
    | [ last ] -> Array.length last = 0 && rup last
    | lemma :: rest -> rup lemma && (add lemma; replay rest)
  in
  replay log
