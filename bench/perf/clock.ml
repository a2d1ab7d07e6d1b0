(* Monotonic nanosecond clock. Every duration the benchmark reports is a
   difference of two readings of this clock: wall-clock time can step, and
   [Unix.gettimeofday] only resolves microseconds, which rounds the cheap
   layer probes to a handful of values. *)

let now_ns () = Monotonic_clock.now ()

let seconds_since t0 = Int64.to_float (Int64.sub (now_ns ()) t0) *. 1e-9

(* [time f] runs [f] and returns its result with the elapsed seconds. *)
let time f =
  let t0 = now_ns () in
  let r = f () in
  (r, seconds_since t0)
