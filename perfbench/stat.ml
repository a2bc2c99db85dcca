(* Host clock and order statistics for the timings. *)

let now = Unix.gettimeofday

let time f =
  let t0 = now () in
  let r = f () in
  (r, now () -. t0)

let percentile = Pnp_harness.Report.percentile
let median xs = percentile 50.0 xs
