external now_ns : unit -> int = "iflow_obs_clock_monotonic_ns" [@@noalloc]

let elapsed_ns t0 = now_ns () - t0
let seconds_of_ns ns = float_of_int ns /. 1e9

let time_per_call ?(min_interval = 0.05) ?(max_reps = 10_000_000) f =
  let rec run reps =
    let t0 = now_ns () in
    for _ = 1 to reps do
      f ()
    done;
    let dt = seconds_of_ns (now_ns () - t0) in
    if dt < min_interval && reps < max_reps then run (reps * 4)
    else dt /. float_of_int reps
  in
  run 1
