(* infoflow — command-line interface to the information-flow library.

   Subcommands mirror the pipeline of the paper:
     generate-model    synthesise a betaICM
     generate-corpus   synthesise a raw tweet corpus
     train             tweets -> inferred graph + trained betaICM
     estimate          flow probability queries (incl. conditional)
     batch             answer a JSONL file of queries through the engine
     stream            maintain a live betaICM from a JSONL evidence log
     serve             answer queries over TCP while evidence streams in
     requests          fetch a running server's flight recorder
     impact            impact (dispersion) distribution of a source
     calibrate         self-test a model with the bucket experiment

   Every flag two subcommands share, and the wiring they share, lives
   in Cli_config, so every subcommand parses the same knob the same
   way; this file keeps what one subcommand alone does. *)
open Cmdliner
module C = Cli_config
module Rng = Iflow_stats.Rng
module Digraph = Iflow_graph.Digraph
module Gen = Iflow_graph.Gen
module Icm = Iflow_core.Icm
module Beta_icm = Iflow_core.Beta_icm
module Generator = Iflow_core.Generator
module Cascade = Iflow_core.Cascade
module Pseudo_state = Iflow_core.Pseudo_state
module Estimator = Iflow_mcmc.Estimator
module Conditions = Iflow_mcmc.Conditions
module Nested = Iflow_mcmc.Nested
module Measures = Iflow_stats.Measures
module Bucket = Iflow_bucket.Bucket
module Model_io = Iflow_io.Model_io
module Engine = Iflow_engine.Engine
module Query = Iflow_engine.Query
module Planner = Iflow_plan.Planner
module Server = Iflow_serve.Server
module Sockio = Iflow_serve.Sockio
module Jsonl = Iflow_engine.Jsonl
module Obs_log = Iflow_obs.Log
module Obs_metrics = Iflow_obs.Metrics
module Obs_prometheus = Iflow_obs.Prometheus
module Obs_clock = Iflow_obs.Clock
open Iflow_twitter

let or_die = C.or_die

(* ----- generate-model ----- *)

let generate_model seed nodes edges output =
  let rng = Rng.create seed in
  let model = Generator.default_beta_icm rng ~nodes ~edges in
  Model_io.save_beta_icm output model;
  Printf.printf "wrote %s: betaICM with %d nodes, %d edges\n" output nodes edges

let generate_model_cmd =
  let nodes =
    Arg.(value & opt int 50 & info [ "n"; "nodes" ] ~doc:"Number of nodes.")
  in
  let edges =
    Arg.(value & opt int 200 & info [ "m"; "edges" ] ~doc:"Number of edges.")
  in
  let output = C.output "model.bicm" ~doc:"Output file." in
  Cmd.v
    (Cmd.info "generate-model"
       ~doc:"Synthesise a random betaICM (paper Section IV-A).")
    Term.(const generate_model $ C.seed_term $ nodes $ edges $ output)

(* ----- generate-corpus ----- *)

let generate_corpus seed users originals output =
  let rng = Rng.create seed in
  let g = Gen.preferential_attachment rng ~nodes:users ~mean_out_degree:4 in
  let truth = Generator.retweet_ground_truth rng g in
  let corpus =
    Corpus.generate ~params:{ Corpus.default_params with originals } rng truth
  in
  Model_io.save_tweets output corpus.Corpus.tweets;
  Model_io.save_icm (output ^ ".truth.icm") corpus.Corpus.truth;
  Printf.printf
    "wrote %s: %d tweets from %d users (%d dropped for sparsity)\n" output
    (List.length corpus.Corpus.tweets)
    users corpus.Corpus.dropped;
  Printf.printf "wrote %s.truth.icm: the generating ground truth\n" output

let generate_corpus_cmd =
  let users =
    Arg.(value & opt int 200 & info [ "users" ] ~doc:"Number of users.")
  in
  let originals =
    Arg.(
      value & opt int 2000 & info [ "originals" ] ~doc:"Original tweet count.")
  in
  let output = C.output "tweets.tsv" ~doc:"Output file." in
  Cmd.v
    (Cmd.info "generate-corpus"
       ~doc:"Synthesise a raw tweet corpus with ground truth.")
    Term.(const generate_corpus $ C.seed_term $ users $ originals $ output)

(* ----- train ----- *)

let train tweets_path output names_path =
  let tweets = Model_io.load_tweets tweets_path in
  let g, names, index = Preprocess.infer_graph tweets in
  let cascades = Preprocess.cascades tweets in
  let objects =
    Preprocess.to_attributed ~graph:g
      ~node_of_name:(fun n -> Hashtbl.find_opt index n)
      cascades
  in
  let model = Beta_icm.train_attributed g objects in
  Model_io.save_beta_icm output model;
  Model_io.save_names names_path names;
  Printf.printf
    "parsed %d tweets into %d cascades over %d users / %d inferred edges\n"
    (List.length tweets) (List.length cascades) (Digraph.n_nodes g)
    (Digraph.n_edges g);
  Printf.printf "wrote %s (betaICM) and %s (node id -> user name)\n" output
    names_path

let train_cmd =
  let output = C.output "trained.bicm" ~doc:"Output betaICM file." in
  Cmd.v
    (Cmd.info "train"
       ~doc:
         "Parse a tweet corpus, infer the graph from '@' references, and \
          train a betaICM from the attributed retweet evidence.")
    Term.(const train $ C.tweets_term $ output $ C.names "trained.names")

(* ----- estimate ----- *)

let estimate seed model_path src dst conditions engine_config config nested
    deadline deadline_ms delay_mean explain obs =
  C.obs_setup obs;
  let rng = Rng.create seed in
  let model, icm = C.load_model model_path in
  let engine = or_die (fun () -> Engine.create ~config:engine_config ~seed icm) in
  let query = Query.flow ~conditions ~src ~dst () in
  let conditions = Conditions.v conditions in
  let rid = Printf.sprintf "cli-%d-1" (Unix.getpid ()) in
  let ph = Engine.phases () in
  let r =
    match
      or_die (fun () -> C.query_within ~rid ~phases:ph deadline_ms engine query)
    with
    | Some r -> r
    | None ->
      Printf.eprintf
        "infoflow estimate: deadline_exceeded — %d ms elapsed before any \
         round completed\n"
        (Option.value deadline_ms ~default:0);
      exit 2
  in
  Obs_log.debug ~component:"estimate" ~rid
    "phases: plan %dns, sample %dns (%d rounds)" ph.Engine.plan_ns
    ph.Engine.sample_ns ph.Engine.rounds;
  Printf.printf "Pr(%d ~> %d%s) = %.5f\n" src dst
    (if Conditions.is_empty conditions then ""
     else Format.asprintf " | %a" Conditions.pp conditions)
    r.Engine.estimate;
  (match r.Engine.plan with
  | Engine.Plan_exact { cone_nodes; _ } ->
    Printf.printf "  exact (closed form, no sampling; %d cone nodes)\n"
      cone_nodes
  | Engine.Plan_mh { sampler; _ } ->
    Printf.printf "  R-hat %.4f, ESS %.0f, MCSE %.5f (%d samples, %s)\n"
      r.Engine.rhat r.Engine.ess r.Engine.mcse r.Engine.total_samples
      (match sampler with
      | Engine.Mh -> Printf.sprintf "%d chains" r.Engine.chains_used
      | Engine.Direct ->
        Printf.sprintf "%d cascade streams" r.Engine.chains_used));
  if r.Engine.partial then
    Printf.printf
      "  partial: the %d ms deadline cut sampling short of convergence\n"
      (Option.value deadline_ms ~default:0);
  if explain then Printf.printf "  plan: %s\n" (C.plan_string r);
  if nested > 0 then begin
    let samples =
      Nested.flow_samples ~conditions rng model config ~reps:nested ~src ~dst
    in
    let mean, (lo, hi) = Nested.mean_and_interval samples in
    Printf.printf
      "uncertainty (%d sampled ICMs): mean %.5f, central 95%% [%.5f, %.5f]\n"
      nested mean lo hi
  end;
  match deadline with
  | None -> ()
  | Some deadline ->
    let latency =
      Iflow_mcmc.Delay.uniform_delay icm
        (Iflow_mcmc.Delay.Exponential delay_mean)
    in
    let p =
      Iflow_mcmc.Delay.probability_within ~conditions rng latency config ~src
        ~dst ~deadline
    in
    Printf.printf
      "Pr(%d ~> %d within %.3g time units; mean edge delay %.3g) = %.5f\n" src
      dst deadline delay_mean p

let estimate_cmd =
  let nested =
    Arg.(
      value & opt int 0
      & info [ "nested" ]
          ~doc:"Also report uncertainty from this many sampled ICMs.")
  in
  let deadline =
    Arg.(
      value
      & opt (some float) None
      & info [ "deadline" ]
          ~doc:
            "Also report the probability of flow arriving within this many \
             time units, with exponential per-edge latency.")
  in
  let delay_mean =
    Arg.(
      value & opt float 1.0
      & info [ "delay-mean" ]
          ~doc:"Mean per-edge latency used with --deadline.")
  in
  Cmd.v
    (Cmd.info "estimate"
       ~doc:
         "Estimate a (conditional) flow probability with multi-chain \
          Metropolis-Hastings sampling and convergence diagnostics.")
    Term.(
      const estimate $ C.seed_term $ C.model_required
      $ C.(required_node src_info)
      $ C.(required_node dst_info)
      $ C.conditions_term $ C.engine_term $ C.mcmc_term $ nested $ deadline
      $ C.deadline_ms_term $ delay_mean $ C.explain_flag $ C.obs_term)

(* ----- batch ----- *)

let batch seed model_path queries_path engine_config deadline_ms explain obs =
  C.obs_setup obs;
  let _, icm = C.load_model model_path in
  let engine = or_die (fun () -> Engine.create ~config:engine_config ~seed icm) in
  let queries =
    C.read_queries queries_path ~on_error:(fun msg ->
        Obs_log.err ~component:"batch" "%s: %s" queries_path msg;
        exit 1)
  in
  let rids =
    let pid = Unix.getpid () in
    Array.init (List.length queries) (fun i ->
        Printf.sprintf "cli-%d-%d" pid (i + 1))
  in
  let t0 = Obs_clock.now_ns () in
  (* each query gets its own fresh budget; an exhausted one answers
     typed instead of poisoning the rest of the file *)
  let results =
    or_die (fun () ->
        List.mapi
          (fun i q -> C.query_within ~rid:rids.(i) deadline_ms engine q)
          queries)
  in
  let elapsed = Obs_clock.seconds_of_ns (Obs_clock.now_ns () - t0) in
  Printf.printf "query\testimate\trhat\tess\tmcse\tsamples\tcached%s\n"
    (if explain then "\tplan" else "");
  List.iter2
    (fun q result ->
      match result with
      | Some (r : Engine.result) ->
        Printf.printf "%s\t%.5f\t%.4f\t%.0f\t%.5f\t%d\t%s%s\n" (Query.key q)
          r.Engine.estimate r.Engine.rhat r.Engine.ess r.Engine.mcse
          r.Engine.total_samples
          (if r.Engine.cached then "yes"
           else if r.Engine.partial then "partial"
           else "no")
          (if explain then "\t" ^ C.plan_string r else "")
      | None ->
        Printf.printf "%s\t-\t-\t-\t-\t0\tdeadline_exceeded%s\n" (Query.key q)
          (if explain then "\tcancelled before any round completed" else ""))
    queries results;
  let stats = Engine.cache_stats engine in
  Obs_log.info ~component:"batch"
    "answered %d queries in %.2fs (%.1f queries/s); cache: %a"
    (List.length queries) elapsed
    (float_of_int (List.length queries) /. Float.max elapsed 1e-9)
    Iflow_engine.Lru.pp_stats stats

let batch_cmd =
  Cmd.v
    (Cmd.info "batch"
       ~doc:
         "Answer a JSONL file of flow queries through the parallel query \
          engine: multi-chain MH per query, adaptive stopping on R-hat and \
          MCSE, deduplication and an LRU result cache. Emits TSV with \
          diagnostics columns.")
    Term.(
      const batch $ C.seed_term $ C.model_required
      $ Arg.(required & opt (some string) None & C.queries_info)
      $ C.engine_term $ C.deadline_ms_term $ C.explain_flag $ C.obs_term)

(* ----- explain ----- *)

(* The planner's own view of a query, without answering it: what the
   engine would decide, and why. Runs no sampling at all. *)
let explain_query icm ~config q =
  Printf.printf "%s\n" (Query.key q);
  match Engine.route config icm q with
  | exception (Failure msg | Invalid_argument msg) ->
    Printf.printf "  error: %s\n" msg
  | Engine.Sample { sampler; reason = Planner.Disabled } ->
    Printf.printf "  plan: %s — %s\n" (Engine.sampler_label sampler)
      (Planner.describe Planner.Disabled)
  | Engine.Bad_query reason ->
    Printf.printf "  error: %s\n" (Planner.describe reason)
  | Engine.Sample { sampler; reason } ->
    Printf.printf "  plan: %s (fallback %s)\n    %s\n"
      (Engine.sampler_label sampler)
      (Planner.reason_label reason)
      (Planner.describe reason)
  | Engine.Exact e ->
    Printf.printf "  plan: exact — Pr = %.6f (%d cone nodes, %d edges, %d \
                   edge visits%s)\n"
      e.Planner.value e.Planner.cone_nodes e.Planner.cone_edges
      e.Planner.work
      (if e.Planner.dropped_conditions > 0 then
         Printf.sprintf ", %d vacuous conditions dropped"
           e.Planner.dropped_conditions
       else "");
    List.iter
      (fun (tp : Planner.target_plan) ->
        Printf.printf "  target %d ~> %d: Pr = %.6f, cone %d nodes / %d \
                       edges%s\n"
          tp.Planner.t_src tp.Planner.t_dst tp.Planner.probability
          tp.Planner.cone_nodes tp.Planner.cone_edges
          (match tp.Planner.path with
          | Some path ->
            ", path " ^ String.concat " -> " (List.map string_of_int path)
          | None -> ""))
      e.Planner.targets

let explain model_path src dst conditions queries_path engine_config obs =
  C.obs_setup obs;
  let _, icm = C.load_model model_path in
  match (queries_path, src, dst) with
  | Some path, _, _ ->
    C.read_queries path ~on_error:(Obs_log.err ~component:"explain" "%s")
    |> List.iter (explain_query icm ~config:engine_config)
  | None, Some src, Some dst ->
    explain_query icm ~config:engine_config (Query.flow ~conditions ~src ~dst ())
  | None, _, _ ->
    Obs_log.err ~component:"explain" "provide --src and --dst, or --queries";
    exit 1

let explain_cmd =
  Cmd.v
    (Cmd.info "explain"
       ~doc:
         "Show how the query planner would answer a query without sampling: \
          'exact' with the closed-form value, evaluated cone and (on tree \
          cones) the unique path, or the sampler with the typed fallback \
          reason: 'direct' (forward cascades) without conditions, 'mh' \
          with them.")
    Term.(
      const explain $ C.model_required
      $ Arg.(value & opt (some int) None & C.src_info)
      $ Arg.(value & opt (some int) None & C.dst_info)
      $ C.conditions_term
      $ Arg.(value & opt (some string) None & C.queries_info)
      $ C.engine_term $ C.obs_term)

(* ----- stream ----- *)

let stream seed learner on_error events_path format drift_report
    quarantine_report probes output metrics_every obs =
  C.obs_setup obs;
  let model, skip, version = C.load_initial ~component:"stream" learner in
  let fmt = C.resolve_format format events_path in
  (if fmt = `Bin && events_path = "-" then begin
     Obs_log.err ~component:"stream" "binary ingest cannot read stdin";
     exit 1
   end);
  let config, online, snapshot =
    C.start_learner learner ~version ~offset:skip model
  in
  let engine =
    (* only pay for an engine when there is something to serve *)
    if probes = [] then None
    else
      Some
        (or_die (fun () ->
             Engine.create ~seed (Beta_icm.expected_icm model)))
  in
  let answer_probes version =
    match engine with
    | None -> ()
    | Some e ->
      List.iter
        (fun (src, dst) ->
          let q = Query.flow ~src ~dst () in
          match Engine.query e q with
          | r ->
            Printf.printf "version %d\t%s\t%.5f\t%s\n%!"
              version.Iflow_stream.Snapshot.id (Query.key q) r.Engine.estimate
              (if r.Engine.cached then "cached" else "sampled")
          | exception (Failure msg | Invalid_argument msg) ->
            Obs_log.warn ~component:"stream" "probe %s: %s" (Query.key q) msg)
        probes
  in
  (* periodic observability dump: rewrite the metrics file every
     [metrics_every] published versions, so a long-running ingest can be
     scraped while it runs *)
  let publishes = ref 0 in
  let on_publish v =
    answer_probes v;
    match (obs.C.metrics_out, metrics_every) with
    | Some path, Some every ->
      incr publishes;
      if !publishes mod every = 0 then
        Obs_prometheus.write_file Obs_metrics.default path
    | _ -> ()
  in
  let on_degraded = C.log_degraded ~component:"stream" in
  let on_quarantine ~line ~reason =
    if quarantine_report then
      Obs_log.warn ~component:"stream" "%s:%d: quarantined: %s" events_path
        line reason
  in
  let on_alert a =
    if drift_report then
      Obs_log.warn ~component:"drift" "%a" Iflow_stream.Drift.pp_alert a
  in
  let report =
    match fmt with
    | `Bin ->
      or_die (fun () ->
          let reader = Iflow_stream.Binlog.Reader.open_ events_path in
          Iflow_stream.Runner.run_binlog ?engine ~skip
            ~on_error ~on_degraded ~on_alert ~on_quarantine
            ~on_publish config online snapshot reader)
    | `Jsonl ->
      C.with_in events_path (fun ic ->
          or_die (fun () ->
              Iflow_stream.Runner.run ?engine ~skip
                ~on_error ~on_degraded ~on_alert
                ~on_quarantine ~on_publish config online snapshot
                (Iflow_stream.Runner.lines_of_channel ic)))
  in
  (match output with
  | Some path ->
    let final = report.Iflow_stream.Runner.final in
    Model_io.save_beta_icm
      ~meta:
        [
          ("offset", string_of_int final.Iflow_stream.Snapshot.offset);
          ("version", string_of_int final.Iflow_stream.Snapshot.id);
        ]
      path final.Iflow_stream.Snapshot.model;
    Printf.printf "wrote %s\n" path
  | None -> ());
  (match engine with
  | Some e ->
    Obs_log.info ~component:"stream" "engine cache after swaps: %a"
      Iflow_engine.Lru.pp_stats (Engine.cache_stats e)
  | None -> ());
  Obs_log.info ~component:"stream" "%a" Iflow_stream.Runner.pp_report report;
  C.check_quarantine_rate ~component:"stream" learner
    report.Iflow_stream.Runner.stats

let events_term =
  Arg.(
    value & opt string "-"
    & info [ "events" ]
        ~doc:
          "Append-only JSONL event log (attributed / trace evidence and \
           add_nodes / add_edges / remove_edges graph changes); '-' reads \
           stdin.")

let drift_report_term =
  Arg.(
    value & flag
    & info [ "drift-report" ] ~doc:"Print every drift alert as it fires.")

let quarantine_report_term =
  Arg.(
    value & flag
    & info [ "quarantine-report" ]
        ~doc:
          "Print every quarantined evidence line (with its line number and \
           reason) as it is rejected.")

let stream_cmd =
  let probes =
    Arg.(
      value & opt_all C.probe_conv []
      & info [ "probe" ]
          ~doc:
            "Flow query SRC:DST answered through the engine after every \
             hot-swap, showing the live estimate track the stream; \
             repeatable.")
  in
  let output =
    Arg.(
      value
      & opt (some string) None
      & C.output_info "Write the final model here.")
  in
  let metrics_every =
    Arg.(
      value
      & opt (some int) None
      & info [ "metrics-every" ]
          ~doc:
            "Rewrite the --metrics-out file every N published versions (in \
             addition to the final dump on exit).")
  in
  Cmd.v
    (Cmd.info "stream"
       ~doc:
         "Consume an append-only evidence log (JSONL or binary segments, \
          sniffed by default) and maintain a live betaICM: batched \
          conjugate updates, optional exponential forgetting, graph-change \
          events, Hoeffding drift alerts, binary ingest with posteriors \
          bit-identical to the JSONL path, versioned checkpoints with \
          replay-from-offset recovery, and hot-swap of each published \
          version into the query engine.")
    Term.(
      const stream $ C.seed_term $ C.learner_term $ C.on_error_term $ events_term
      $ C.format_term $ drift_report_term
      $ quarantine_report_term $ probes $ output $ metrics_every $ C.obs_term)

(* ----- convert ----- *)

let convert input output segment_bytes strict obs =
  C.obs_setup obs;
  let bad = ref 0 in
  let skip_or_die what msg =
    if strict then begin
      Obs_log.err ~component:"convert" "%s: %s" what msg;
      exit 1
    end
    else begin
      incr bad;
      Obs_log.warn ~component:"convert" "skipping %s: %s" what msg
    end
  in
  if Iflow_stream.Binlog.is_binlog input then begin
    (* binary -> jsonl: the audit direction *)
    let events = ref 0 in
    C.with_out output (fun oc ->
        or_die (fun () ->
            let r = Iflow_stream.Binlog.Reader.open_ input in
            let rec go () =
              match Iflow_stream.Binlog.Reader.next r with
              | None -> ()
              | Some (Ok ev) ->
                output_string oc (Iflow_stream.Event.to_line ev);
                output_char oc '\n';
                incr events;
                go ()
              | Some (Error e) ->
                skip_or_die "damaged record"
                  (Iflow_stream.Binlog.error_message e);
                go ()
            in
            go ()));
    Obs_log.info ~component:"convert" "decoded %d events (%d damaged)"
      !events !bad
  end
  else begin
    (* jsonl -> binary: the fast-ingest direction *)
    let w =
      C.with_in input (fun ic ->
          let w =
            or_die (fun () ->
                Iflow_stream.Binlog.Writer.create ?segment_bytes output)
          in
          Fun.protect
            ~finally:(fun () -> Iflow_stream.Binlog.Writer.close w)
            (fun () ->
              let lineno = ref 0 in
              let rec go () =
                match Iflow_stream.Runner.lines_of_channel ic () with
                | None -> ()
                | Some line ->
                  incr lineno;
                  (match Iflow_stream.Event.of_line ~lineno:!lineno line with
                  | Ok ev -> (
                    try Iflow_stream.Binlog.Writer.append w ev
                    with Invalid_argument msg ->
                      skip_or_die (Printf.sprintf "line %d" !lineno) msg)
                  | Error msg -> skip_or_die "line" msg);
                  go ()
              in
              go ());
          w)
    in
    Obs_log.info ~component:"convert" "encoded %d events in %d segments \
                                       (%d lines skipped)"
      (Iflow_stream.Binlog.Writer.events w)
      (Iflow_stream.Binlog.Writer.segments w)
      !bad
  end;
  if !bad > 0 then
    Printf.printf "converted with %d damaged inputs skipped\n" !bad

let convert_cmd =
  let input =
    Arg.(
      required
      & pos 0 (some string) None
      & info [] ~docv:"INPUT"
          ~doc:
            "Source log. Binary inputs (sniffed by magic bytes) decode to \
             JSONL; anything else encodes JSONL to binary segments. '-' \
             reads stdin (JSONL only).")
  in
  let output =
    Arg.(
      required
      & pos 1 (some string) None
      & info [] ~docv:"OUTPUT"
          ~doc:
            "Destination: the JSONL file ('-' for stdout) or the binary \
             segment base path (OUTPUT, OUTPUT.1, ...).")
  in
  let segment_bytes =
    Arg.(
      value
      & opt (some int) None
      & info [ "segment-bytes" ]
          ~doc:"Roll binary segments at this size (default 64 MiB).")
  in
  let strict =
    Arg.(
      value & flag
      & info [ "strict" ]
          ~doc:
            "Fail on the first damaged input line/record instead of \
             skipping it.")
  in
  Cmd.v
    (Cmd.info "convert"
       ~doc:
         "Transcode an event log between JSONL and the binary segment \
          format, in either direction (direction is sniffed from the \
          input). Damaged inputs are skipped and counted unless --strict. \
          Replaying either encoding yields bit-identical posteriors.")
    Term.(
      const convert $ input $ output $ segment_bytes $ strict $ C.obs_term)

(* ----- serve ----- *)

let serve seed config domains learner engine_config obs =
  C.obs_setup obs;
  let engine_config = { engine_config with Engine.domains } in
  (* Graceful shutdown via sigwait: with every thread parked in a
     blocking section (accept, condition waits), an ordinary
     Signal_handle never gets a safepoint to run on. Mask the signals
     before any thread spawns (they inherit the mask), then park one
     dedicated thread in Thread.wait_signal. *)
  ignore (Thread.sigmask Unix.SIG_BLOCK [ Sys.sigint; Sys.sigterm ]);
  let model, _, version = C.load_initial ~component:"serve" learner in
  let engine =
    or_die (fun () ->
        Engine.create ~config:engine_config ~seed
          (Beta_icm.expected_icm model))
  in
  (* the network stream has no replayable prefix: evidence offsets (and
     checkpoints) restart at 0 even when --resume carried one over *)
  let runner_config, online, snapshot =
    C.start_learner learner ~version ~offset:0 model
  in
  (* starting the runner tags the engine with the (possibly resumed)
     version before the first answer can leave *)
  let runner =
    or_die (fun () ->
        Iflow_stream.Runner.start ~engine
          ~on_degraded:(C.log_degraded ~component:"serve")
          ~on_quarantine:(fun ~line ~reason ->
            Obs_log.warn ~component:"serve"
              "evidence line %d quarantined: %s" line reason)
          runner_config online snapshot)
  in
  let server =
    or_die (fun () -> Server.create ~config ~learner:runner ~engine ())
  in
  or_die (fun () -> Server.start server);
  Printf.printf "infoflow serve: listening on %s:%d (model version %d)\n%!"
    config.Server.host (Server.port server) version;
  let (_ : Thread.t) =
    Thread.create
      (fun () ->
        let signal = Thread.wait_signal [ Sys.sigint; Sys.sigterm ] in
        Obs_log.info ~component:"serve" "signal %d: shutting down" signal;
        Server.stop server)
      ()
  in
  Server.wait server;
  (* every connection has closed: publish the partial last batch *)
  let report = Iflow_stream.Runner.finish runner in
  let s = Server.stats server in
  Obs_log.info ~component:"serve"
    "served %d connections: %d requests, %d answered, %d shed (%d capacity, \
     %d quota, %d deadline), %d bad, %d engine errors, %d evidence lines"
    s.Server.connections s.Server.requests s.Server.answered
    (s.Server.shed_capacity + s.Server.shed_quota + s.Server.shed_deadline)
    s.Server.shed_capacity s.Server.shed_quota s.Server.shed_deadline
    s.Server.bad_requests s.Server.engine_errors s.Server.evidence_lines;
  Obs_log.info ~component:"serve" "%a" Iflow_stream.Runner.pp_report report;
  C.check_quarantine_rate ~component:"serve" learner
    report.Iflow_stream.Runner.stats

let serve_cmd =
  let domains =
    Arg.(
      value
      & opt (some int) None
      & info [ "domains" ]
          ~doc:
            "Serving domains (default: recommended for this machine). Each \
             accepted connection's thread runs on the domain with the \
             fewest open connections, so sessions answer in parallel; a \
             query's chains run in order on its connection's domain.")
  in
  Cmd.v
    (Cmd.info "serve"
       ~doc:
         "Serve flow queries over TCP (raw JSONL sessions or HTTP POST \
          /query) while JSONL evidence posted to /evidence runs through \
          the online learner before its 202 reply, hot-swapping model \
          versions under live traffic. Admission control: --workers \
          execution slots and a bounded line of waiters with typed over_capacity shedding, optional per-tenant token-bucket quotas \
          (X-Tenant header / \"tenant\" field). Every request carries a \
          request id (client-supplied X-Request-Id / \"request_id\", or \
          server-minted), echoed on every answer; the last N requests are \
          reconstructible via GET /debug/requests or `infoflow requests`. \
          GET /metrics and /healthz expose the iflow_serve_* registry \
          live.")
    Term.(
      const serve $ C.seed_term $ C.server_term $ domains $ C.learner_term
      $ C.engine_term $ C.obs_term)

(* ----- impact ----- *)

let impact seed model_path src config =
  let rng = Rng.create seed in
  let _, icm = C.load_model model_path in
  let samples = Estimator.impact_samples rng icm config ~src in
  let floats = Array.map float_of_int samples in
  let module D = Iflow_stats.Descriptive in
  Printf.printf "impact of node %d over %d samples:\n" src
    (Array.length samples);
  Printf.printf "  mean %.2f, median %.0f, p90 %.0f, max %.0f\n"
    (D.mean floats) (D.median floats) (D.quantile floats 0.9)
    (snd (D.min_max floats));
  let hi = Float.max 1.0 (snd (D.min_max floats)) in
  Format.printf "%a@." D.pp_histogram
    (D.histogram ~lo:0.0 ~hi ~bins:(min 15 (int_of_float hi + 1)) floats)

let impact_cmd =
  Cmd.v
    (Cmd.info "impact"
       ~doc:"Sample the impact (number of reached nodes) distribution.")
    Term.(
      const impact $ C.seed_term $ C.model_required
      $ C.(required_node src_info)
      $ C.mcmc_term)

(* ----- train-unattributed ----- *)

let train_unattributed tweets_path kind output names_path =
  let tweets = Model_io.load_tweets tweets_path in
  let g, names, index = Preprocess.infer_graph tweets in
  let aug, omni = Unattributed.augment_with_omnipotent g in
  let kind =
    match kind with
    | "url" -> Unattributed.Url
    | "hashtag" -> Unattributed.Hashtag
    | other ->
      Printf.eprintf "error: unknown item kind %S (use url or hashtag)\n" other;
      exit 1
  in
  let traces =
    Unattributed.item_traces ~kind
      ~node_of_name:(fun n -> Hashtbl.find_opt index n)
      ~n_nodes:(Iflow_graph.Digraph.n_nodes aug)
      ~omni tweets
  in
  let trace_list = List.map snd traces in
  Printf.printf "found %d items over %d users (+ omnipotent user %d)\n"
    (List.length traces)
    (Iflow_graph.Digraph.n_nodes g)
    omni;
  let rng = Rng.create 42 in
  let options =
    {
      Iflow_learn.Joint_bayes.default_options with
      burn_in = 200;
      samples = 300;
      thin = 2;
    }
  in
  let estimates = ref [] in
  for sink = 0 to Iflow_graph.Digraph.n_nodes g - 1 do
    let summary = Iflow_core.Summary.build aug trace_list ~sink in
    if Iflow_core.Summary.n_entries summary > 0 then
      estimates :=
        Iflow_learn.Joint_bayes.train ~options rng summary :: !estimates
  done;
  Printf.printf "trained %d sinks with the joint Bayes method\n"
    (List.length !estimates);
  let mean, std =
    Iflow_learn.Trainer.mean_std_arrays aug ~default_mean:0.0 ~default_std:0.0
      !estimates
  in
  (* persist posterior means as Beta pseudo-counts matching mean/std *)
  let betas =
    Array.mapi
      (fun e m ->
        match
          Iflow_stats.Dist.Beta.fit_moments ~mean:m
            ~variance:(std.(e) *. std.(e))
        with
        | Some b -> b
        | None ->
          (* point-like posterior: encode with strong pseudo-counts *)
          let m = Float.max 1e-4 (Float.min (1.0 -. 1e-4) m) in
          Iflow_stats.Dist.Beta.v (1.0 +. (1000.0 *. m))
            (1.0 +. (1000.0 *. (1.0 -. m))))
      mean
  in
  Model_io.save_beta_icm output (Beta_icm.create aug betas);
  Model_io.save_names names_path (Array.append names [| "<omnipotent>" |]);
  Printf.printf "wrote %s and %s (node %d is the omnipotent user)\n" output
    names_path omni

let train_unattributed_cmd =
  let kind =
    Arg.(
      value & opt string "url"
      & info [ "kind" ] ~doc:"Item kind to track: url or hashtag.")
  in
  let output =
    C.output "unattributed.bicm" ~doc:"Output betaICM (omnipotent-augmented)."
  in
  Cmd.v
    (Cmd.info "train-unattributed"
       ~doc:
         "Learn edge probabilities from hashtag or URL adoption times \
          (unattributed evidence, joint Bayes method).")
    Term.(
      const train_unattributed $ C.tweets_term $ kind $ output
      $ C.names "unattributed.names")

(* ----- seeds (influence maximisation) ----- *)

let seeds seed model_path k runs =
  let rng = Rng.create seed in
  let model, icm = C.load_model model_path in
  let chosen, spread = Iflow_mcmc.Influence.greedy_seeds ~runs rng icm ~k in
  Printf.printf "greedy %d-seed set: [%s]\n" k
    (String.concat "; " (List.map string_of_int chosen));
  Printf.printf "estimated expected spread: %.2f of %d nodes\n" spread
    (Beta_icm.n_nodes model)

let seeds_cmd =
  let k = Arg.(value & opt int 3 & info [ "k" ] ~doc:"Seed-set size.") in
  let runs =
    Arg.(
      value & opt int 300
      & info [ "runs" ] ~doc:"Simulations per spread evaluation.")
  in
  Cmd.v
    (Cmd.info "seeds"
       ~doc:
         "Pick a seed set maximising expected spread (lazy greedy / CELF).")
    Term.(const seeds $ C.seed_term $ C.model_required $ k $ runs)

(* ----- calibrate ----- *)

let calibrate seed model_path trials config =
  let rng = Rng.create seed in
  let model, icm = C.load_model model_path in
  let n = Beta_icm.n_nodes model in
  if n < 2 then (
    Printf.eprintf "error: model needs at least 2 nodes\n";
    exit 1);
  let predictions =
    List.init trials (fun _ ->
        let sampled = Beta_icm.sample_icm rng model in
        let state = Pseudo_state.sample rng sampled in
        let src = Rng.int rng n in
        let dst = (src + 1 + Rng.int rng (n - 1)) mod n in
        {
          Measures.estimate =
            Estimator.flow_probability rng icm config ~src ~dst;
          outcome = Pseudo_state.flow sampled state ~src ~dst;
        })
  in
  let bucket = Bucket.run ~bins:30 ~label:model_path predictions in
  Format.printf "%a@.%a@." Bucket.pp bucket Bucket.pp_summary bucket

let calibrate_cmd =
  let trials =
    Arg.(
      value & opt int 300
      & info [ "trials" ] ~doc:"Number of bucket-experiment trials.")
  in
  Cmd.v
    (Cmd.info "calibrate"
       ~doc:
         "Self-test a betaICM with the paper's bucket experiment: sample \
          outcomes from the model itself and check the estimator's \
          calibration.")
    Term.(const calibrate $ C.seed_term $ C.model_required $ trials $ C.mcmc_term)

(* ----- metrics ----- *)

let metrics seed model_path src dst engine_config json =
  let _, icm = C.load_model model_path in
  let engine = or_die (fun () -> Engine.create ~config:engine_config ~seed icm) in
  (* one sampled query + one cache hit, so every mcmc/engine metric has
     something to show *)
  let q = Query.flow ~src ~dst () in
  ignore (or_die (fun () -> Engine.query engine q));
  ignore (or_die (fun () -> Engine.query engine q));
  print_string
    (if json then Obs_metrics.to_json_string Obs_metrics.default
     else Obs_prometheus.to_string Obs_metrics.default)

let metrics_cmd =
  let json =
    Arg.(
      value & flag
      & info [ "json" ]
          ~doc:"Emit the JSON snapshot instead of Prometheus text format.")
  in
  Cmd.v
    (Cmd.info "metrics"
       ~doc:
         "Run one probe flow query and print the resulting registry \
          snapshot (Prometheus text exposition by \
          default) to stdout — a smoke test of the observability layer.")
    Term.(
      const metrics $ C.seed_term $ C.model_required
      $ Arg.(value & opt int 0 & C.src_info)
      $ Arg.(value & opt int 1 & C.dst_info)
      $ C.engine_term $ json)

(* ----- requests ----- *)

(* raw one-request HTTP client over Sockio: GET /debug/requests from a
   running `infoflow serve` and return (status line, body). The server
   closes after one HTTP exchange, so reading to EOF delimits the
   body without parsing Content-Length. *)
let fetch_requests ~host ~port ~n =
  let addr =
    match
      Unix.getaddrinfo host (string_of_int port)
        [ Unix.AI_SOCKTYPE Unix.SOCK_STREAM ]
    with
    | [] -> failwith (Printf.sprintf "cannot resolve %s:%d" host port)
    | ai :: _ -> ai.Unix.ai_addr
  in
  let fd = Unix.socket (Unix.domain_of_sockaddr addr) Unix.SOCK_STREAM 0 in
  Fun.protect
    ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
    (fun () ->
      Unix.connect fd addr;
      Sockio.write_all fd
        (Printf.sprintf
           "GET /debug/requests?n=%d HTTP/1.1\r\n\
            Host: %s:%d\r\nConnection: close\r\n\r\n"
           n host port);
      let r = Sockio.reader fd in
      let status =
        match Sockio.read_line r with
        | Sockio.Line l -> l
        | Sockio.Eof | Sockio.Too_long | Sockio.Timeout ->
          failwith "no HTTP status line"
      in
      let rec skip_headers () =
        match Sockio.read_line r with
        | Sockio.Line "" -> ()
        | Sockio.Line _ -> skip_headers ()
        | Sockio.Eof | Sockio.Too_long | Sockio.Timeout ->
          failwith "truncated HTTP response"
      in
      skip_headers ();
      let b = Buffer.create 4096 in
      let rec body () =
        match Sockio.read_line r with
        | Sockio.Line l ->
          Buffer.add_string b l;
          Buffer.add_char b '\n';
          body ()
        | Sockio.Eof | Sockio.Timeout -> ()
        | Sockio.Too_long -> failwith "over-long line in HTTP body"
      in
      body ();
      (status, Buffer.contents b))

let requests host port n json =
  let status, body =
    try or_die (fun () -> fetch_requests ~host ~port ~n) with
    | Unix.Unix_error (e, _, _) ->
      Obs_log.err ~component:"requests" "cannot reach %s:%d: %s" host port
        (Unix.error_message e);
      exit 1
  in
  (match String.split_on_char ' ' status with
  | _ :: "200" :: _ -> ()
  | _ ->
    Obs_log.err ~component:"requests" "%s:%d answered %S" host port status;
    exit 1);
  if json then print_string body
  else
    let records =
      match Jsonl.parse body with
      | Ok (Jsonl.List l) -> l
      | Ok _ ->
        Obs_log.err ~component:"requests" "body is not a JSON array";
        exit 1
      | Error msg ->
        Obs_log.err ~component:"requests" "bad JSON body: %s" msg;
        exit 1
    in
    let str k o =
      Option.value ~default:""
        (Option.bind (Jsonl.member k o) Jsonl.to_string)
    in
    let int_ k o =
      Option.value ~default:0 (Option.bind (Jsonl.member k o) Jsonl.to_int)
    in
    let num k o =
      match Jsonl.member k o with Some (Jsonl.Num f) -> f | _ -> Float.nan
    in
    let ms ns = float_of_int ns /. 1e6 in
    Printf.printf "%-5s %-18s %-8s %-6s %3s %9s %8s %9s %7s %6s %7s %-6s %s\n"
      "seq" "id" "tenant" "path" "ver" "queue_ms" "plan_ms" "sample_ms"
      "ser_ms" "rounds" "samples" "rhat" "query";
    List.iter
      (fun o ->
        let path = str "path" o in
        let note =
          match (str "error" o, str "fallback" o) with
          | "", "" -> ""
          | err, "" -> Printf.sprintf "  error=%s" err
          | _, fb -> Printf.sprintf "  fallback=%s" fb
        in
        let rhat = num "rhat" o in
        Printf.printf
          "%-5d %-18s %-8s %-6s %3d %9.3f %8.3f %9.3f %7.3f %6d %7d %-6s %s%s\n"
          (int_ "seq" o) (str "request_id" o) (str "tenant" o) path
          (int_ "version" o)
          (ms (int_ "queue_wait_ns" o))
          (ms (int_ "plan_ns" o))
          (ms (int_ "sample_ns" o))
          (ms (int_ "serialize_ns" o))
          (int_ "rounds" o) (int_ "samples" o)
          (if Float.is_nan rhat then "-" else Printf.sprintf "%.3f" rhat)
          (str "kind" o) note)
      records;
    Printf.printf "%d record%s\n" (List.length records)
      (if List.length records = 1 then "" else "s")

let requests_cmd =
  let n =
    Arg.(
      value & opt int 32
      & info [ "n" ]
          ~doc:"How many recent requests to fetch (newest first).")
  in
  let json =
    Arg.(
      value & flag
      & info [ "json" ]
          ~doc:"Dump the raw JSON records instead of the table.")
  in
  Cmd.v
    (Cmd.info "requests"
       ~doc:
         "Fetch the flight recorder of a running `infoflow serve` (GET \
          /debug/requests) and print the last N requests: request id, \
          tenant, answer path (cache/exact/mh/error), model version, and \
          the phase-decomposed latency (queue wait, plan, sample, \
          serialize), plus sampler diagnostics for MH answers.")
    Term.(const requests $ C.host_term $ C.port_term $ n $ json)

(* ----- prom-check ----- *)

let prom_check path =
  let text =
    C.with_file path (fun ic ->
        or_die (fun () -> really_input_string ic (in_channel_length ic)))
  in
  match Obs_prometheus.check text with
  | Ok () ->
    Printf.printf "%s: ok\n" path;
    exit 0
  | Error msg ->
    Obs_log.err ~component:"prom-check" "%s: %s" path msg;
    exit 1

let prom_check_cmd =
  let file =
    Arg.(
      required
      & pos 0 (some string) None
      & info [] ~docv:"FILE" ~doc:"Prometheus text exposition to validate.")
  in
  Cmd.v
    (Cmd.info "prom-check"
       ~doc:
         "Validate a Prometheus text exposition file: sample-line syntax, \
          label well-formedness, and duplicate metric detection. Exits \
          non-zero on the first malformed line (CI gate).")
    Term.(const prom_check $ file)

let () =
  let info =
    Cmd.info "infoflow" ~version:"1.0.0"
      ~doc:"Learning stochastic models of information flow (ICDE 2012)."
  in
  exit
    (Cmd.eval
       (Cmd.group info
          [
            generate_model_cmd; generate_corpus_cmd; train_cmd;
            train_unattributed_cmd; estimate_cmd; batch_cmd; explain_cmd;
            stream_cmd; convert_cmd; serve_cmd; requests_cmd; impact_cmd;
            seeds_cmd; calibrate_cmd; metrics_cmd; prom_check_cmd;
          ]))
