(* Regenerates every table and figure of the paper's evaluation, plus
   the ablation studies and Bechamel micro-benchmarks.

   Default sizing is Scale.Quick so the whole run finishes in a few
   minutes; set IFLOW_FULL=1 for paper-scale runs. *)
open Iflow_exp
module Rng = Iflow_stats.Rng
module Icm = Iflow_core.Icm
module Generator = Iflow_core.Generator
module Gen = Iflow_graph.Gen
module Estimator = Iflow_mcmc.Estimator
module Chain = Iflow_mcmc.Chain
module Bucket = Iflow_bucket.Bucket

module Engine = Iflow_engine.Engine
module Query = Iflow_engine.Query

let ppf = Format.std_formatter

let section title =
  Format.fprintf ppf
    "@.############################################################@.# %s@.############################################################@.@."
    title

(* ---------- Engine throughput ---------- *)

(* Queries/sec through the query engine's MH chains on the paper's
   timing setting (~6K users, ~12K edges). The MCSE target is set
   unreachably tight so every query runs to the same fixed sample
   budget. A query's chains
   run in order on the calling domain; parallelism comes from serving
   several connections on several domains (`infoflow serve --domains`),
   which the served benchmark in bench/harness measures. *)
let engine_throughput rng =
  let g = Gen.preferential_attachment rng ~nodes:6000 ~mean_out_degree:2 in
  let m = Iflow_graph.Digraph.n_edges g in
  let probs = Array.init m (fun _ -> 0.1 +. (0.8 *. Rng.uniform rng)) in
  let icm = Icm.create g probs in
  let n = Iflow_graph.Digraph.n_nodes g in
  let n_queries = 12 in
  (* random pairs on this DAG are mostly unreachable — constant-0
     indicator chains converge instantly, so sample connected pairs to
     keep every query's MH work non-trivial *)
  let dsts = Array.make n 0 in
  let rec connected_pair () =
    let src = Rng.int rng n in
    let reachable = Iflow_graph.Traverse.reachable_from g [ src ] in
    let count = ref 0 in
    Array.iteri
      (fun v r ->
        if r && v <> src then begin
          dsts.(!count) <- v;
          incr count
        end)
      reachable;
    if !count = 0 then connected_pair ()
    else (src, dsts.(Rng.int rng !count))
  in
  let queries =
    List.init n_queries (fun _ ->
        let src, dst = connected_pair () in
        Query.flow ~src ~dst ())
  in
  Format.fprintf ppf
    "engine throughput: %d flow queries, 4 chains each, on %d nodes / %d edges@."
    n_queries n m;
  let config =
    {
      Engine.default_config with
      Engine.chains = 4;
      burn_in = 200;
      thin = 20;
      round_samples = 250;
      max_samples = 2000;
      mcse_target = 1e-9 (* fixed budget: every query runs to the cap *);
      cache_capacity = 0 (* time sampling, not memoisation *);
      planner = false (* time the MH chains, not the planner *);
    }
  in
  let engine = Engine.create ~config ~seed:4242 icm in
  let t0 = Unix.gettimeofday () in
  List.iter (fun q -> ignore (Engine.query engine q)) queries;
  let dt = Unix.gettimeofday () -. t0 in
  Format.fprintf ppf "%.2f s, %.1f MH queries/s on one domain@." dt
    (float_of_int n_queries /. dt)

(* ---------- Bechamel micro-benchmarks ---------- *)

let micro_benchmarks rng =
  let open Bechamel in
  let open Toolkit in
  (* the paper's timing claim setting: ~6K users, ~14K edges *)
  let big_graph = Gen.preferential_attachment rng ~nodes:6000 ~mean_out_degree:2 in
  let m = Iflow_graph.Digraph.n_edges big_graph in
  let probs = Array.init m (fun _ -> 0.1 +. (0.8 *. Rng.uniform rng)) in
  let big_icm = Icm.create big_graph probs in
  let chain = Chain.create rng big_icm in
  let chain_rng = Rng.split rng in
  let small_icm =
    let g = Gen.gnm rng ~nodes:50 ~edges:200 in
    Icm.create g (Array.init 200 (fun _ -> 0.1 +. (0.8 *. Rng.uniform rng)))
  in
  let small_chain = Chain.create rng small_icm in
  let fenwick =
    Iflow_stats.Fenwick.of_array (Array.init 100_000 (fun _ -> Rng.uniform rng))
  in
  let summary =
    let pars = 8 in
    let ps = Array.init pars (fun _ -> Rng.uniform rng) in
    let g, icm, sink = Generator.in_star_icm ~probs:ps in
    let traces =
      List.init 20000 (fun _ ->
          let sources =
            List.filter (fun _ -> Rng.bool rng) (List.init pars (fun j -> j))
          in
          let sources = if sources = [] then [ 0 ] else sources in
          Iflow_core.Cascade.run_trace rng icm ~sources)
    in
    Iflow_core.Summary.build g traces ~sink
  in
  let kappa =
    Array.make
      (Array.length (Iflow_core.Summary.parents_union summary))
      0.5
  in
  let tests =
    [
      Test.make ~name:"chain_step_14k_edges"
        (Staged.stage (fun () -> Chain.step chain_rng chain));
      Test.make ~name:"chain_step_200_edges"
        (Staged.stage (fun () -> Chain.step chain_rng small_chain));
      Test.make ~name:"reachability_14k_edges"
        (Staged.stage (fun () ->
             ignore
               (Iflow_core.Pseudo_state.flow big_icm (Chain.state chain)
                  ~src:0 ~dst:1)));
      Test.make ~name:"fenwick_sample_100k"
        (Staged.stage (fun () -> ignore (Iflow_stats.Fenwick.sample chain_rng fenwick)));
      Test.make ~name:"goyal_train_summary"
        (Staged.stage (fun () -> ignore (Iflow_learn.Goyal.train summary)));
      Test.make ~name:"joint_bayes_log_posterior"
        (Staged.stage (fun () ->
             ignore
               (Iflow_learn.Joint_bayes.log_posterior
                  ~prior:(fun _ -> Iflow_stats.Dist.Beta.uniform)
                  ~ambiguous_only:false summary kappa)));
    ]
  in
  let ols =
    Analyze.ols ~bootstrap:0 ~r_square:true ~predictors:[| Measure.run |]
  in
  let instances = Instance.[ monotonic_clock ] in
  let cfg =
    Benchmark.cfg ~limit:2000 ~quota:(Time.second 0.5) ~kde:None ()
  in
  let raw =
    Benchmark.all cfg instances (Test.make_grouped ~name:"iflow" tests)
  in
  let results = Analyze.all ols Instance.monotonic_clock raw in
  Format.fprintf ppf "%-40s %16s %8s@." "benchmark" "ns/op" "r^2";
  let rows = Hashtbl.fold (fun name ols acc -> (name, ols) :: acc) results [] in
  List.iter
    (fun (name, ols) ->
      let estimate =
        match Analyze.OLS.estimates ols with
        | Some (e :: _) -> e
        | Some [] | None -> Float.nan
      in
      let r2 = Option.value (Analyze.OLS.r_square ols) ~default:Float.nan in
      Format.fprintf ppf "%-40s %16.1f %8.4f@." name estimate r2)
    (List.sort compare rows);
  (* The paper's Section IV-C claim: ~0.13 ms per chain update and
     ~27 ms per output sample on a ~6K-user, ~14K-edge graph. Our
     per-sample cost = thin * step + one reachability sweep. *)
  let t0 = Sys.time () in
  let sample_count = 200 in
  let config = { Estimator.burn_in = 0; thin = 200; samples = sample_count } in
  ignore (Estimator.flow_probability chain_rng big_icm config ~src:0 ~dst:42);
  let per_sample = (Sys.time () -. t0) /. float_of_int sample_count in
  Format.fprintf ppf
    "@.per-output-sample cost on %d-edge graph (thin 200): %.2f ms (paper: 27 ms on its hardware)@."
    m (per_sample *. 1000.0)

let () =
  let scale = Scale.from_env () in
  let rng = Rng.create 20120401 in
  Format.fprintf ppf "infoflow benchmark harness — scale: %a@." Scale.pp scale;
  Format.fprintf ppf
    "(set IFLOW_FULL=1 for paper-scale runs; shapes are stable across scales)@.";

  section "Fig 1 — MH bucket experiment on synthetic betaICMs";
  let b1 = Fig1.report scale (Rng.split rng) ppf in

  section "Fig 5 — RWR bucket experiment (baseline)";
  let b5 = Fig5.report scale (Rng.split rng) ppf in

  section "Twitter corpus (synthetic stand-in for the Choudhury crawl)";
  let lab = Twitter_lab.make scale (Rng.split rng) in
  Format.fprintf ppf
    "corpus: %d tweets (%d dropped for sparsity), %d users, %d follow edges@."
    (List.length lab.Twitter_lab.corpus.Iflow_twitter.Corpus.tweets)
    lab.Twitter_lab.corpus.Iflow_twitter.Corpus.dropped
    (Iflow_graph.Digraph.n_nodes lab.Twitter_lab.graph)
    (Iflow_graph.Digraph.n_edges lab.Twitter_lab.graph);
  Format.fprintf ppf "training objects (parsed cascades): %d@."
    (List.length lab.Twitter_lab.train_objects);

  section "Fig 2 — attributed Twitter bucket experiments";
  let f2 = Fig2.report scale (Rng.split rng) lab ppf in

  section "Fig 3 — uncertainty: modelled vs empirical";
  ignore (Fig3.report scale (Rng.split rng) lab ppf);

  section "Fig 4 — impact (retweeting users), predicted vs actual";
  ignore (Fig4.report scale (Rng.split rng) lab ppf);

  section "Fig 6 — per-sample cost, ours vs Goyal";
  ignore (Fig6.report scale (Rng.split rng) ppf);

  section "Fig 7 — RMSE of unattributed trainers vs #objects";
  ignore (Fig7.report scale (Rng.split rng) ppf);

  section "Fig 8 — URL flow (unattributed)";
  let f8 =
    Fig8_9.report scale (Rng.split rng) lab
      ~kind:Iflow_twitter.Unattributed.Url ppf
  in

  section "Fig 9 — hashtag flow (unattributed)";
  let f9 =
    Fig8_9.report scale (Rng.split rng) lab
      ~kind:Iflow_twitter.Unattributed.Hashtag ppf
  in

  section "Fig 10 — gaussian edge sampling";
  let b10 = Fig10.report scale (Rng.split rng) lab ppf in

  section "Fig 11 / Table II — EM local maxima vs joint Bayes";
  ignore (Fig11.report scale (Rng.split rng) ppf);

  section "Table I — example evidence summary";
  Tables.report_table_one ppf;

  section "Table III — accuracy measures";
  let buckets =
    (b1 :: b5
     :: List.map (fun (r : Fig2.result) -> r.Fig2.bucket) f2)
    @ List.map (fun (r : Fig8_9.result) -> r.Fig8_9.bucket) f8
    @ List.map (fun (r : Fig8_9.result) -> r.Fig8_9.bucket) f9
    @ [ b10 ]
  in
  Tables.report_table_three ppf buckets;

  section "Ablations";
  Ablations.report_proposal_tree (Rng.split rng) ppf;
  Ablations.report_thinning (Rng.split rng) ppf;
  Ablations.report_summarisation (Rng.split rng) ppf;
  Ablations.report_conditional_strategies (Rng.split rng) ppf;
  Ablations.report_point_vs_nested scale (Rng.split rng) ppf;

  section "Engine throughput — parallel flow queries";
  engine_throughput (Rng.split rng);

  section "Bechamel micro-benchmarks";
  micro_benchmarks (Rng.split rng);

  Format.fprintf ppf "@.done.@."
