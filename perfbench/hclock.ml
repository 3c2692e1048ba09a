(* The host clock: this process's monotonic wall clock, in ns. *)

let now_ns () = Int64.to_float (Monotonic_clock.now ())
