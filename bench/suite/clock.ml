(* The suite's only host clock: CLOCK_MONOTONIC in nanoseconds. Process
   CPU time (Sys.time) sums every OCaml domain's time and so over-counts
   sharded runs; wall time on one monotonic clock does not. The reading
   is unboxed and allocation-free, so timing a chunk does not perturb the
   allocation counts taken around it. *)

let now_ns () = Int64.to_int (Monotonic_clock.now ())

(* Median host ns over [runs] calls of [f]. *)
let median_ns ?(runs = 9) f =
  Stats.median
    (Array.init runs (fun _ ->
         let t0 = now_ns () in
         f ();
         float_of_int (now_ns () - t0)))
