(* Rounds to metrics: the end-to-end set every workload reports, and
   the per-layer numbers read from the running server.

   Every time is divided by the machine's slowdown around the slice or
   set-up that measured it ([Calib.factor]), so each metric reads as on
   the reference machine at its best speed. *)

module W = Workload
module D = Iflow_stats.Descriptive

(* nan on an empty sample, which only a failed run produces *)
let med xs = if xs = [||] then Float.nan else D.median xs
let pct xs p = if xs = [||] then Float.nan else D.quantile xs p
let mean xs = if xs = [||] then Float.nan else D.mean xs

type stat = {
  unit_ : string;
  value : float;
  q1 : float;  (** quartiles over the slices (over set-ups for [setup_s]) *)
  median : float;
  q3 : float;
  n : int;  (** samples behind [value] *)
  per_round : float array;  (** [value] computed on each round alone *)
}

let slices rounds = List.concat_map (fun (r : W.round) -> r.W.slices) rounds

(* [value] of the pooled slices, with its quartiles over single slices;
   [n] counts operations *)
let over_slices unit_ rounds (value : W.slice list -> float) =
  let per = Array.of_list (List.map (fun s -> value [ s ]) (slices rounds)) in
  let q1, median, q3 = Sample.quartiles per in
  {
    unit_;
    value = value (slices rounds);
    q1;
    median;
    q3;
    n = List.fold_left (fun a (s : W.slice) -> a + Array.length s.W.lat_us) 0 (slices rounds);
    per_round = Array.of_list (List.map (fun (r : W.round) -> value r.W.slices) rounds);
  }

(* the run's median slowdown, for the record *)
let speed_factor (st : W.state) =
  med (Array.of_list (List.map (fun (s : W.slice) -> s.W.factor) (slices st.W.rounds)))

(* [mismatches] from the correctness gate count as failures. *)
let end_to_end ?(mismatches = 0) (st : W.state) =
  let rounds = List.rev st.W.rounds in
  let epo = float_of_int (W.events_per_op st.W.kind) in
  let sum g ss = List.fold_left (fun a s -> a +. g s) 0.0 ss in
  let ops ss = sum (fun (s : W.slice) -> float_of_int (Array.length s.W.lat_us)) ss in
  let rate ss = epo *. ops ss /. sum (fun (s : W.slice) -> s.W.dur_s /. s.W.factor) ss in
  let cpu ss = sum (fun (s : W.slice) -> s.W.cpu_s /. s.W.factor) ss *. 1e6 /. (epo *. ops ss) in
  let latency p ss =
    pct (Array.concat (List.map (fun (s : W.slice) -> Array.map (fun l -> l /. s.W.factor) s.W.lat_us) ss)) p
  in
  let setups = Array.of_list (List.rev_map (fun (s, f) -> s /. f) st.W.setups) in
  let q1, median, q3 = Sample.quartiles setups in
  let attempted = Atomic.get st.W.attempted in
  let failed = Atomic.get st.W.failed + mismatches in
  let success = 1.0 -. (float_of_int failed /. float_of_int (max 1 attempted)) in
  [
    ( "setup_s",
      { unit_ = "s"; value = med setups; q1; median; q3; n = Array.length setups; per_round = setups } );
    ("ops_per_s", over_slices "1/s" rounds rate);
    ("latency_p50_us", over_slices "us" rounds (latency 0.50));
    ("latency_p90_us", over_slices "us" rounds (latency 0.90));
    ("cpu_us_per_op", over_slices "us" rounds cpu);
    ( "success_rate",
      { unit_ = "fraction"; value = success; q1 = success; median = success; q3 = success; n = attempted; per_round = [||] } );
  ]

(* Per-layer numbers from the server's own read-outs: the flight
   recorder (read right after each round) and /healthz. *)
let server_layers (rounds : W.round list) =
  let fl = List.concat_map (fun (r : W.round) -> r.W.flight) rounds in
  let us field keep p =
    let a =
      Array.of_list
        (List.filter_map
           (fun (x : Net.flight) -> if keep x then Some (float_of_int (field x) /. 1e3) else None)
           fl)
    in
    if a = [||] then 0.0 else D.quantile a p
  in
  let any (_ : Net.flight) = true in
  let planned (x : Net.flight) = x.Net.path = "exact" || x.Net.path = "mh" in
  let share path =
    match fl with
    | [] -> 0.0
    | _ ->
      float_of_int (List.length (List.filter (fun (x : Net.flight) -> x.Net.path = path) fl))
      /. float_of_int (List.length fl)
  in
  let qw (x : Net.flight) = x.Net.queue_wait_ns in
  let plan (x : Net.flight) = x.Net.plan_ns in
  [
    ("serve.queue_wait_us.p50", "us", us qw any 0.50);
    ("serve.queue_wait_us.p99", "us", us qw any 0.99);
    ("serve.serialize_us.p50", "us", us (fun x -> x.Net.serialize_ns) any 0.50);
    ("serve.path_share.cache", "fraction", share "cache");
    ("serve.path_share.exact", "fraction", share "exact");
    ("serve.path_share.mh", "fraction", share "mh");
    ("serve.refused", "count", float_of_int (List.fold_left (fun a (r : W.round) -> a + r.W.refused) 0 rounds));
    ("plan.plan_us.p50", "us", us plan planned 0.50);
    ("plan.plan_us.p99", "us", us plan planned 0.99);
    ( "mcmc.sample_us.p50",
      "us",
      us (fun x -> x.Net.sample_ns) (fun x -> x.Net.path = "mh") 0.50 );
    ( "stream.versions_published",
      "count",
      med (Array.of_list (List.map (fun (r : W.round) -> float_of_int r.W.versions) rounds)) );
  ]
