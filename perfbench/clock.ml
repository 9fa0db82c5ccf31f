(* Monotonic nanosecond clock.  Every op and span is timed with it:
   [Unix.gettimeofday] ticks in whole microseconds, which is a large
   share of a memo hit. *)

let now_ns () = Int64.to_int (Monotonic_clock.now ())
let seconds_since t0 = float_of_int (now_ns () - t0) *. 1e-9
