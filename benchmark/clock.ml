(* Seconds on the monotonic clock, at nanosecond resolution: a serve read
   takes about 10 µs, close to gettimeofday's microsecond grain. *)
let now () = Int64.to_float (Monotonic_clock.now ()) *. 1e-9
