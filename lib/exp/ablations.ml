open Iflow_core
module Rng = Iflow_stats.Rng
module Fenwick = Iflow_stats.Fenwick
module Dist = Iflow_stats.Dist
module Measures = Iflow_stats.Measures
module Gen = Iflow_graph.Gen
module Estimator = Iflow_mcmc.Estimator
module Chain = Iflow_mcmc.Chain
module Bucket = Iflow_bucket.Bucket

(* Monotonic wall time per call; [Sys.time] (CPU time) under-counts
   multi-domain work, so timings go through the shared clock. *)
let time_per_call f = Iflow_obs.Clock.time_per_call f

(* ----- proposal: Fenwick vs naive scan ----- *)

let report_proposal_tree rng ppf =
  Format.fprintf ppf
    "@[<v>== Ablation: proposal sampling, Fenwick tree vs naive scan ==@,";
  Format.fprintf ppf "%10s %16s %16s %10s@." "edges" "fenwick (s/op)"
    "naive (s/op)" "speedup";
  List.iter
    (fun m ->
      let weights = Array.init m (fun _ -> Rng.uniform rng) in
      let tree = Fenwick.of_array weights in
      let fenwick_time =
        time_per_call (fun () ->
            (* the chain also updates the flipped edge's weight *)
            Fenwick.complement tree (Fenwick.sample rng tree))
      in
      let naive_time =
        time_per_call (fun () ->
            let e = Dist.categorical rng weights in
            weights.(e) <- 1.0 -. weights.(e))
      in
      Format.fprintf ppf "%10d %16.3e %16.3e %9.1fx@." m fenwick_time
        naive_time (naive_time /. fenwick_time))
    [ 1_000; 10_000; 100_000 ];
  Format.fprintf ppf "@]"

(* ----- thinning ----- *)

let report_thinning rng ppf =
  Format.fprintf ppf
    "@[<v>== Ablation: thinning interval at a fixed retained-sample budget ==@,";
  let g = Gen.gnm rng ~nodes:8 ~edges:18 in
  let icm =
    Icm.create g (Array.init 18 (fun _ -> 0.1 +. (0.8 *. Rng.uniform rng)))
  in
  let truth = Exact.brute_force_flow icm ~src:0 ~dst:7 in
  Format.fprintf ppf "truth Pr(0 ~> 7) = %.4f@." truth;
  Format.fprintf ppf "%6s %12s %14s@." "thin" "mean |error|" "indicator ESS";
  List.iter
    (fun thin ->
      let trials = 20 in
      let samples = 500 in
      let err = ref 0.0 in
      let ess = ref 0.0 in
      for _ = 1 to trials do
        (* collect the flow-indicator series so we can report both the
           estimate error and the effective sample size of the chain *)
        let series = Array.make samples 0.0 in
        let i = ref 0 in
        Estimator.fold_samples rng icm
          { Estimator.burn_in = 200; thin; samples }
          ~init:()
          ~f:(fun () state ->
            series.(!i) <-
              (if Iflow_core.Pseudo_state.flow icm state ~src:0 ~dst:7 then 1.0
               else 0.0);
            incr i);
        let estimate = Iflow_stats.Descriptive.mean series in
        err := !err +. Float.abs (estimate -. truth);
        ess := !ess +. Iflow_stats.Descriptive.effective_sample_size series
      done;
      Format.fprintf ppf "%6d %12.4f %14.0f@." thin
        (!err /. float_of_int trials)
        (!ess /. float_of_int trials))
    [ 1; 2; 5; 20; 50 ];
  Format.fprintf ppf "@]"

(* ----- summarisation ----- *)

let report_summarisation rng ppf =
  Format.fprintf ppf
    "@[<v>== Ablation: likelihood cost, per-event Bernoulli vs summarised Binomial ==@,";
  Format.fprintf ppf "%10s %8s %16s %16s@." "objects" "omega" "bernoulli (s)"
    "binomial (s)";
  List.iter
    (fun objects ->
      let parents = 6 in
      let probs = Array.init parents (fun _ -> Rng.uniform rng) in
      let g, icm, sink = Generator.in_star_icm ~probs in
      let traces =
        List.init objects (fun _ ->
            let sources =
              List.filter (fun _ -> Rng.bool rng)
                (List.init parents (fun j -> j))
            in
            let sources =
              if sources = [] then [ Rng.int rng parents ] else sources
            in
            Cascade.run_trace rng icm ~sources)
      in
      let summary = Summary.build g traces ~sink in
      let kappa _ = 0.5 in
      (* per-event likelihood straight off the traces *)
      let bernoulli () =
        List.fold_left
          (fun acc (tr : Evidence.trace) ->
            let survive = ref 1.0 in
            for j = 0 to parents - 1 do
              if tr.Evidence.times.(j) >= 0 then
                survive := !survive *. (1.0 -. kappa j)
            done;
            let p = 1.0 -. !survive in
            acc
            +. Float.log
                 (Float.max 1e-300
                    (if tr.Evidence.times.(sink) >= 0 then p else 1.0 -. p)))
          0.0 traces
      in
      let binomial () = Summary.log_likelihood summary ~prob:kappa in
      Format.fprintf ppf "%10d %8d %16.3e %16.3e@." objects
        (Summary.n_entries summary)
        (time_per_call (fun () -> ignore (bernoulli ())))
        (time_per_call (fun () -> ignore (binomial ()))))
    [ 1_000; 10_000; 50_000 ];
  Format.fprintf ppf "@]"

(* ----- conditional estimation strategies ----- *)

let report_conditional_strategies rng ppf =
  Format.fprintf ppf
    "@[<v>== Ablation: conditional flow, constrained chain vs sample ratio ==@,";
  let g = Gen.gnm rng ~nodes:8 ~edges:18 in
  let icm =
    Icm.create g (Array.init 18 (fun _ -> 0.15 +. (0.7 *. Rng.uniform rng)))
  in
  let conditions = [ (0, 3, true) ] in
  match Exact.brute_force_conditional icm ~conditions ~src:0 ~dst:7 with
  | exception Failure _ ->
    Format.fprintf ppf "(conditions infeasible on this draw)@,@]"
  | truth ->
    Format.fprintf ppf "truth Pr(0 ~> 7 | 0 ~> 3) = %.4f@." truth;
    Format.fprintf ppf "%-18s %12s %12s@." "strategy" "mean |error|" "secs/run";
    let config = { Estimator.burn_in = 500; thin = 10; samples = 2000 } in
    let cset = Iflow_mcmc.Conditions.v conditions in
    let measure label f =
      let trials = 10 in
      let err = ref 0.0 in
      let t0 = Iflow_obs.Clock.now_ns () in
      for _ = 1 to trials do
        err := !err +. Float.abs (f () -. truth)
      done;
      let dt =
        Iflow_obs.Clock.seconds_of_ns (Iflow_obs.Clock.elapsed_ns t0)
        /. float_of_int trials
      in
      Format.fprintf ppf "%-18s %12.4f %12.4f@." label
        (!err /. float_of_int trials)
        dt
    in
    measure "constrained chain" (fun () ->
        Estimator.flow_probability ~conditions:cset rng icm config ~src:0
          ~dst:7);
    measure "sample ratio" (fun () ->
        Estimator.conditional_flow_by_ratio rng icm config ~conditions:cset
          ~src:0 ~dst:7);
    Format.fprintf ppf "@]"

(* ----- point prediction vs nested mean ----- *)

let report_point_vs_nested scale rng ppf =
  Format.fprintf ppf
    "@[<v>== Ablation: expected-ICM point estimate vs nested-MH mean ==@,";
  let models = Scale.pick scale ~quick:60 ~full:300 in
  let reps = Scale.pick scale ~quick:10 ~full:30 in
  let config =
    Scale.pick scale
      ~quick:{ Estimator.burn_in = 200; thin = 3; samples = 200 }
      ~full:{ Estimator.burn_in = 500; thin = 5; samples = 500 }
  in
  let point = ref [] and nested = ref [] in
  for _ = 1 to models do
    let model = Generator.default_beta_icm rng ~nodes:12 ~edges:36 in
    let sampled = Beta_icm.sample_icm rng model in
    let state = Pseudo_state.sample rng sampled in
    let src = Rng.int rng 12 in
    let dst = (src + 1 + Rng.int rng 11) mod 12 in
    let outcome = Pseudo_state.flow sampled state ~src ~dst in
    let p_point =
      Estimator.flow_probability rng
        (Beta_icm.expected_icm model)
        config ~src ~dst
    in
    let samples =
      Iflow_mcmc.Nested.flow_samples rng model
        { config with samples = config.Estimator.samples / 2 }
        ~reps ~src ~dst
    in
    let p_nested = Iflow_stats.Descriptive.mean samples in
    point := { Measures.estimate = p_point; outcome } :: !point;
    nested := { Measures.estimate = p_nested; outcome } :: !nested
  done;
  let b_point = Bucket.run ~bins:10 ~label:"expected-ICM point" !point in
  let b_nested = Bucket.run ~bins:10 ~label:"nested-MH mean" !nested in
  Format.fprintf ppf "%a@,%a@,@]" Bucket.pp_summary b_point Bucket.pp_summary
    b_nested
