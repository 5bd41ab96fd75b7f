(* Color predicates K^l_h (Definitions 6, 7).  They are invented
   ([Pred.invented]), so no predicate of the input is ever taken for a
   color, and a color's hue and lightness are read back from the table
   [pred] fills, never from its name.  The table is process-wide and only
   touched under one mutex, like [Pred]'s intern table. *)

open Bddfc_logic

let colors : (int, int * int) Hashtbl.t = Hashtbl.create 64
let lock = Mutex.create ()

let pred ~hue ~lightness =
  let p = Pred.invented (Printf.sprintf "k%d_%d" hue lightness) 1 in
  Mutex.protect lock (fun () ->
      Hashtbl.replace colors (Pred.id p) (hue, lightness));
  p

let of_pred p =
  Mutex.protect lock (fun () -> Hashtbl.find_opt colors (Pred.id p))
