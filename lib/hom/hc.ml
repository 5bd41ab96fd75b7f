(* Names kept for benchmark/ until its own PR deletes them: see hc.mli. *)

open Bddfc_logic

type mode = Interned | Structural

let holds_memo ?engine inst ~init q =
  let init =
    List.fold_left (fun acc (x, e) -> Smap.add x e acc) Smap.empty init
  in
  Eval.holds ~init ?engine inst q

let reset () = ()
