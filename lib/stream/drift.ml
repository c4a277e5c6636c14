module Digraph = Iflow_graph.Digraph
module Beta = Iflow_stats.Dist.Beta
module Beta_icm = Iflow_core.Beta_icm

type config = { window : int; delta : float; min_reference : float }

let default_config = { window = 200; delta = 1e-3; min_reference = 50.0 }

type alert = {
  edge : int;
  src : int;
  dst : int;
  reference_rate : float;
  window_rate : float;
  window_trials : int;
  threshold : float;
  at_trial : int;
}

type t = {
  config : config;
  mutable graph : Digraph.t;
  mutable ref_rate : float array;
  mutable ref_mass : float array;
  mutable win_fired : int array;
  mutable win_trials : int array;
  mutable flags : bool array;
  mutable n_flagged : int;
  mutable n_trials : int;
  mutable n_alerts : int;
  mutable alerts_rev : alert list;
}

let seed_reference model =
  let m = Beta_icm.n_edges model in
  let rate = Array.make m 0.0 and mass = Array.make m 0.0 in
  for e = 0 to m - 1 do
    let b = Beta_icm.edge_beta model e in
    rate.(e) <- Beta.mean b;
    mass.(e) <- b.Beta.alpha +. b.Beta.beta
  done;
  (rate, mass)

let create config model =
  if config.window < 1 then invalid_arg "Drift.create: window must be >= 1";
  if not (config.delta > 0.0 && config.delta < 1.0) then
    invalid_arg "Drift.create: delta outside (0, 1)";
  let m = Beta_icm.n_edges model in
  let ref_rate, ref_mass = seed_reference model in
  {
    config;
    graph = Beta_icm.graph model;
    ref_rate;
    ref_mass;
    win_fired = Array.make m 0;
    win_trials = Array.make m 0;
    flags = Array.make m false;
    n_flagged = 0;
    n_trials = 0;
    n_alerts = 0;
    alerts_rev = [];
  }

let reset t model =
  let m = Beta_icm.n_edges model in
  let ref_rate, ref_mass = seed_reference model in
  t.graph <- Beta_icm.graph model;
  t.ref_rate <- ref_rate;
  t.ref_mass <- ref_mass;
  t.win_fired <- Array.make m 0;
  t.win_trials <- Array.make m 0;
  t.flags <- Array.make m false;
  t.n_flagged <- 0

let hoeffding_threshold t e =
  (* AALpy HoeffdingChecker, two-sample form *)
  (sqrt (1.0 /. t.ref_mass.(e)) +. sqrt (1.0 /. float_of_int t.config.window))
  *. sqrt (0.5 *. log (2.0 /. t.config.delta))

let absorb t e =
  (* fold the passed window into the reference: the stationary
     reference sharpens, shrinking the threshold over time *)
  let w = float_of_int t.win_trials.(e) in
  let mass = t.ref_mass.(e) +. w in
  t.ref_rate.(e) <-
    ((t.ref_rate.(e) *. t.ref_mass.(e)) +. float_of_int t.win_fired.(e)) /. mass;
  t.ref_mass.(e) <- mass

let observe t ~edge ~fired =
  if edge < 0 || edge >= Array.length t.win_trials then
    invalid_arg "Drift.observe: bad edge";
  t.n_trials <- t.n_trials + 1;
  t.win_trials.(edge) <- t.win_trials.(edge) + 1;
  if fired then t.win_fired.(edge) <- t.win_fired.(edge) + 1;
  if t.win_trials.(edge) < t.config.window then None
  else begin
    let result =
      if t.ref_mass.(edge) < t.config.min_reference then begin
        (* not enough reference yet: build it up instead of testing *)
        absorb t edge;
        None
      end
      else begin
        let window_rate =
          float_of_int t.win_fired.(edge) /. float_of_int t.win_trials.(edge)
        in
        let threshold = hoeffding_threshold t edge in
        if Float.abs (window_rate -. t.ref_rate.(edge)) > threshold then begin
          let a =
            {
              edge;
              src = Digraph.edge_src t.graph edge;
              dst = Digraph.edge_dst t.graph edge;
              reference_rate = t.ref_rate.(edge);
              window_rate;
              window_trials = t.win_trials.(edge);
              threshold;
              at_trial = t.n_trials;
            }
          in
          t.alerts_rev <- a :: t.alerts_rev;
          t.n_alerts <- t.n_alerts + 1;
          if not t.flags.(edge) then begin
            t.flags.(edge) <- true;
            t.n_flagged <- t.n_flagged + 1
          end;
          Some a
        end
        else begin
          if t.flags.(edge) then begin
            t.flags.(edge) <- false;
            t.n_flagged <- t.n_flagged - 1
          end;
          absorb t edge;
          None
        end
      end
    in
    t.win_trials.(edge) <- 0;
    t.win_fired.(edge) <- 0;
    result
  end

let flagged t = t.n_flagged

let is_flagged t e =
  if e < 0 || e >= Array.length t.flags then
    invalid_arg "Drift.is_flagged: bad edge";
  t.flags.(e)

let alerts t = List.rev t.alerts_rev
let alert_count t = t.n_alerts

let pp_alert ppf a =
  Format.fprintf ppf
    "edge %d (%d -> %d): window rate %.3f vs reference %.3f (threshold %.3f, \
     window %d, trial %d)"
    a.edge a.src a.dst a.window_rate a.reference_rate a.threshold
    a.window_trials a.at_trial
