(* Cli_config — the flag-spec layer of the infoflow CLI.

   Every flag that more than one subcommand takes is declared here
   once, with the setup, loader and wiring helpers that go with it, so
   a knob means the same thing in every subcommand that takes it (the
   CLI once shipped MCMC defaults that silently disagreed with the
   library). Subcommands compose the terms below; `infoflow.ml` keeps
   only what one subcommand alone does. *)
open Cmdliner
module Estimator = Iflow_mcmc.Estimator
module Cancel = Iflow_mcmc.Cancel
module Engine = Iflow_engine.Engine
module Query = Iflow_engine.Query
module Beta_icm = Iflow_core.Beta_icm
module Model_io = Iflow_io.Model_io
module Runner = Iflow_stream.Runner
module Snapshot = Iflow_stream.Snapshot
module Online = Iflow_stream.Online
module Drift = Iflow_stream.Drift
module Server = Iflow_serve.Server
module Quota = Iflow_serve.Quota
module Obs_log = Iflow_obs.Log
module Obs_metrics = Iflow_obs.Metrics
module Obs_prometheus = Iflow_obs.Prometheus
module Obs_trace = Iflow_obs.Trace

(* engine/config/file errors are user errors, not crashes *)
let or_die f =
  match f () with
  | v -> v
  | exception (Failure msg | Invalid_argument msg | Sys_error msg) ->
    Obs_log.err "%s" msg;
    exit 1
  | exception (Engine.Chains_failed _ as e) ->
    Obs_log.err "%s" (Printexc.to_string e);
    exit 1
  | exception Iflow_stream.Binlog.Corrupt msg ->
    Obs_log.err "corrupt binary log: %s" msg;
    exit 1

(* exit 3 is reserved for --max-quarantine-rate violations, so scripts
   can tell "stream is garbage" from ordinary failures (exit 1) *)
let exit_quarantine = 3

let seed_term =
  let doc = "Random seed (experiments are reproducible per seed)." in
  Arg.(value & opt int 42 & info [ "seed" ] ~doc)

(* ----- observability ----- *)

type obs = {
  log_level : string;
  metrics_out : string option;
  trace_out : string option;
}

let obs_term =
  let log_level =
    Arg.(
      value & opt string "warn"
      & info [ "log-level" ]
          ~doc:"Diagnostic verbosity on stderr: error, warn, info, or debug.")
  in
  let metrics_out =
    Arg.(
      value
      & opt (some string) None
      & info [ "metrics-out" ]
          ~doc:
            "Write a Prometheus text exposition of the metrics registry \
             here on exit. The registry always records; this only chooses \
             where the exposition goes.")
  in
  let trace_out =
    Arg.(
      value
      & opt (some string) None
      & info [ "trace-out" ]
          ~doc:
            "Write Chrome trace_event JSON here (open in chrome://tracing \
             or Perfetto).")
  in
  let make log_level metrics_out trace_out =
    { log_level; metrics_out; trace_out }
  in
  Term.(const make $ log_level $ metrics_out $ trace_out)

(* Teardown goes through [at_exit] so error paths still flush. *)
let obs_setup obs =
  (match Obs_log.level_of_string obs.log_level with
  | Ok l -> Obs_log.set_level l
  | Error msg ->
    Obs_log.err "%s" msg;
    exit 1);
  (match obs.trace_out with Some path -> Obs_trace.to_file path | None -> ());
  at_exit (fun () ->
      (match obs.metrics_out with
      | Some path -> (
        try Obs_prometheus.write_file Obs_metrics.default path
        with Sys_error msg -> Obs_log.err ~component:"obs" "%s" msg)
      | None -> ());
      Obs_trace.close ())

(* ----- sampling ----- *)

(* Defaults mirror Estimator.default_config exactly — the CLI used to
   ship its own (burn 1000, thin 10, samples 2000) and silently disagree
   with the library. One source of truth now. *)
let mcmc_term =
  let d = Estimator.default_config in
  let burn =
    Arg.(
      value & opt int d.Estimator.burn_in
      & info [ "burn-in" ] ~doc:"Burn-in steps (library default).")
  in
  let thin =
    Arg.(
      value & opt int d.Estimator.thin
      & info [ "thin" ] ~doc:"Steps between samples (library default).")
  in
  let samples =
    Arg.(
      value & opt int d.Estimator.samples
      & info [ "samples" ] ~doc:"Retained samples per chain (library default).")
  in
  let make burn_in thin samples = { Estimator.burn_in; thin; samples } in
  Term.(const make $ burn $ thin $ samples)

(* engine knobs shared by `estimate`, `batch`, `explain`, `metrics` and
   `serve`; each query runs on the domain that asks it, so `--domains`
   is `serve`'s alone *)
let engine_term =
  let chains =
    Arg.(
      value & opt int Engine.default_config.Engine.chains
      & info [ "chains" ] ~doc:"Independent MH chains per query.")
  in
  let rhat =
    Arg.(
      value & opt float Engine.default_config.Engine.rhat_target
      & info [ "rhat-target" ] ~doc:"Stop when split-R-hat falls below this.")
  in
  let mcse =
    Arg.(
      value & opt float Engine.default_config.Engine.mcse_target
      & info [ "mcse-target" ]
          ~doc:"... and the Monte-Carlo standard error below this.")
  in
  let no_planner =
    Arg.(
      value & flag
      & info [ "no-planner" ]
          ~doc:
            "Disable the exact-oracle query planner: every query takes the \
             Metropolis-Hastings path, even when a closed-form answer is \
             available.")
  in
  let make chains rhat_target mcse_target no_planner (config : Estimator.config)
      =
    {
      Engine.default_config with
      Engine.chains;
      rhat_target;
      mcse_target;
      burn_in = config.Estimator.burn_in;
      thin = config.Estimator.thin;
      round_samples = min 250 config.Estimator.samples;
      max_samples = config.Estimator.samples * chains;
      planner = not no_planner;
    }
  in
  Term.(const make $ chains $ rhat $ mcse $ no_planner $ mcmc_term)

(* ----- files ----- *)

(* [f] over [path] opened for reading, closed afterwards; a file that
   cannot be opened exits 1 *)
let with_file path f =
  let ic = or_die (fun () -> open_in path) in
  Fun.protect ~finally:(fun () -> close_in_noerr ic) (fun () -> f ic)

(* [with_file], with '-' meaning stdin *)
let with_in path f = if path = "-" then f stdin else with_file path f

(* [f] over [path] opened for writing, '-' meaning stdout *)
let with_out path f =
  if path = "-" then f stdout
  else
    let oc = or_die (fun () -> open_out path) in
    Fun.protect ~finally:(fun () -> close_out oc) (fun () -> f oc)

(* -o/--output: each writer names its own default file *)
let output_info doc = Arg.info [ "o"; "output" ] ~doc
let output default ~doc = Arg.(value & opt string default & output_info doc)

(* the corpus `train` and `train-unattributed` read, and the name
   table they write *)
let tweets_term =
  Arg.(
    required
    & opt (some string) None
    & info [ "tweets" ] ~doc:"Tweet corpus (TSV: id author time text).")

let names default =
  Arg.(
    value & opt string default
    & info [ "names" ] ~doc:"Output user-name table.")

let model_required =
  Arg.(
    required
    & opt (some string) None
    & info [ "model" ] ~doc:"betaICM file.")

(* a --model file as the betaICM and its expected ICM; a missing or
   malformed file exits 1 with the reason *)
let load_model path =
  or_die (fun () ->
      let model = Model_io.load_beta_icm path in
      (model, Beta_icm.expected_icm model))

(* ----- queries ----- *)

let condition_conv =
  let parse s =
    match String.split_on_char ':' s with
    | [ u; v; a ] -> (
      match (int_of_string_opt u, int_of_string_opt v, a) with
      | Some u, Some v, "+" -> Ok (u, v, true)
      | Some u, Some v, "-" -> Ok (u, v, false)
      | _ -> Error (`Msg "expected SRC:DST:+ or SRC:DST:-"))
    | _ -> Error (`Msg "expected SRC:DST:+ or SRC:DST:-")
  in
  let print ppf (u, v, a) =
    Format.fprintf ppf "%d:%d:%s" u v (if a then "+" else "-")
  in
  Arg.conv (parse, print)

let probe_conv =
  let parse s =
    match String.split_on_char ':' s with
    | [ u; v ] -> (
      match (int_of_string_opt u, int_of_string_opt v) with
      | Some u, Some v -> Ok (u, v)
      | _ -> Error (`Msg "expected SRC:DST"))
    | _ -> Error (`Msg "expected SRC:DST")
  in
  Arg.conv (parse, fun ppf (u, v) -> Format.fprintf ppf "%d:%d" u v)

(* --src/--dst: required where the query needs them, optional where
   --queries can stand in (explain), defaulted for metrics' probe *)
let src_info = Arg.info [ "src" ] ~doc:"Source node."
let dst_info = Arg.info [ "dst" ] ~doc:"Sink node."
let required_node node = Arg.(required & opt (some int) None & node)

let conditions_term =
  Arg.(
    value & opt_all condition_conv []
    & info [ "c"; "condition" ]
        ~doc:
          "Flow condition SRC:DST:+ (flow known present) or SRC:DST:- \
           (known absent); repeatable.")

(* --queries: required by batch, optional in explain *)
let queries_info =
  Arg.info [ "queries" ]
    ~doc:
      "JSONL query file: one JSON object per line, e.g. \
       {\"type\":\"flow\",\"src\":0,\"dst\":5, \
       \"conditions\":[[0,3,\"+\"]]}, \
       {\"type\":\"community\",\"src\":0,\"sinks\":[3,4]}, or \
       {\"type\":\"joint\",\"flows\":[[0,3],[1,4]]}."

(* the queries of a JSONL file in order, blank lines skipped; each
   undecodable line's message (which names the line) goes to
   [on_error] *)
let read_queries path ~on_error =
  with_file path (fun ic ->
      let rec go acc lineno =
        match input_line ic with
        | exception End_of_file -> List.rev acc
        | line when String.trim line = "" -> go acc (lineno + 1)
        | line -> (
          match Query.of_line ~lineno line with
          | Ok q -> go (q :: acc) (lineno + 1)
          | Error msg ->
            on_error msg;
            go acc (lineno + 1))
      in
      go [] 1)

let explain_flag =
  Arg.(
    value & flag
    & info [ "explain" ]
        ~doc:
          "Also report how each answer was produced: 'exact' with the \
           evaluated cone size when the query planner certified a \
           closed-form answer, otherwise the sampler ('direct' or 'mh') with \
           the fallback reason.")

(* one-line rendering of how an answer was produced, for --explain *)
let plan_string (r : Engine.result) =
  match r.Engine.plan with
  | Engine.Plan_exact { cone_nodes } ->
    Printf.sprintf "exact (cone %d nodes)" cone_nodes
  | Engine.Plan_mh { fallback = Some reason; sampler } ->
    Printf.sprintf "%s (fallback: %s)" (Engine.sampler_label sampler) reason
  | Engine.Plan_mh { fallback = None; sampler } -> Engine.sampler_label sampler

(* checked here, so a budget out of range exits 1 before any work *)
let deadline_ms_term =
  let check =
    Option.map (fun ms ->
        match Cancel.check_ms "--deadline-ms" (Some ms) with
        | Ok ms -> ms
        | Error msg ->
          Obs_log.err "%s" msg;
          exit 1)
  in
  Term.(
    const check
    $ Arg.(
        value
        & opt (some int) None
        & info [ "deadline-ms" ]
            ~doc:
              "Wall-clock budget for answering each query, from 1 to \
               2147483647 ms. Sampling is cancelled at the deadline: a query \
               with at least one completed round answers its partial \
               estimate, flagged (batch's cached column reads 'partial'); one \
               with none reports deadline_exceeded (estimate exits 2). \
               Without this flag, answers are bit-for-bit those of a \
               deadline-free run. (Distinct from estimate's --deadline, which \
               asks about flow arrival time.)"))

(* One query under its own fresh --deadline-ms budget; [None] when the
   deadline passed before one sampling round completed. Without a
   deadline none is armed. *)
let query_within ?rid ?phases deadline_ms engine q =
  let cancel =
    match deadline_ms with Some ms -> Cancel.create ms | None -> Cancel.none
  in
  match Engine.query ?rid ?phases ~cancel engine q with
  | r -> Some r
  | exception Engine.Deadline_exceeded _ -> None

(* ----- the streaming learner's knobs, shared by `stream` and `serve` ----- *)

type learner = {
  model : string option;
  resume : string option;
  batch : int;
  checkpoint : string option;
  checkpoint_every : int option;
  keep_checkpoints : int;
  max_quarantine_rate : float option;
  forget : float;
  drift_window : int;
  drift_delta : float;
}

let learner_term =
  let model =
    Arg.(
      value
      & opt (some string) None
      & info [ "model" ] ~doc:"Initial betaICM (e.g. the untrained prior).")
  in
  let resume =
    Arg.(
      value
      & opt (some string) None
      & info [ "resume" ]
          ~doc:
            "Resume from a streaming checkpoint: load the model and skip \
             the event-log lines it already absorbed. Digest mismatches \
             fail loudly.")
  in
  let batch =
    Arg.(
      value & opt int Runner.default_config.Runner.batch
      & info [ "batch" ]
          ~doc:"Applied events per published model version (and swap).")
  in
  let checkpoint =
    Arg.(
      value
      & opt (some string) None
      & info [ "checkpoint" ] ~doc:"Checkpoint file to write periodically.")
  in
  let checkpoint_every =
    Arg.(
      value
      & opt (some int) None
      & info [ "checkpoint-every" ]
          ~doc:"Event-log lines between checkpoints (requires --checkpoint).")
  in
  let keep_checkpoints =
    Arg.(
      value & opt int 1
      & info [ "keep-checkpoints" ]
          ~doc:
            "Rotated checkpoint generations to retain (FILE, FILE.1, ...). \
             --resume falls back to the newest generation that still loads \
             and verifies, so a crash mid-write costs one interval of \
             replay, not the run.")
  in
  let max_quarantine_rate =
    Arg.(
      value
      & opt (some float) None
      & info [ "max-quarantine-rate" ]
          ~doc:
            "Exit with status 3 when quarantined/applied exceeds this rate \
             at end of stream — the ingest ran, but the evidence looks \
             wrong.")
  in
  let forget =
    Arg.(
      value & opt float 0.0
      & info [ "forget" ]
          ~doc:
            "Exponential forgetting factor per published batch, in [0, 1): \
             pseudo-counts are scaled by (1 - lambda) so old evidence fades \
             on non-stationary streams. 0 disables.")
  in
  let drift_window =
    Arg.(
      value
      & opt int Drift.default_config.Drift.window
      & info [ "drift-window" ] ~doc:"Per-edge trials per drift-test window.")
  in
  let drift_delta =
    Arg.(
      value
      & opt float Drift.default_config.Drift.delta
      & info [ "drift-delta" ]
          ~doc:"Significance of the Hoeffding drift test (smaller = stricter).")
  in
  let make model resume batch checkpoint checkpoint_every keep_checkpoints
      max_quarantine_rate forget drift_window drift_delta =
    {
      model;
      resume;
      batch;
      checkpoint;
      checkpoint_every;
      keep_checkpoints;
      max_quarantine_rate;
      forget;
      drift_window;
      drift_delta;
    }
  in
  Term.(
    const make $ model $ resume $ batch $ checkpoint $ checkpoint_every
    $ keep_checkpoints $ max_quarantine_rate $ forget
    $ drift_window $ drift_delta)

(* `stream`'s read-failure policy; `serve` reads no log (its evidence
   arrives in POST bodies), so it does not take the flag *)
let on_error_term =
  let policy_conv =
    Arg.enum
      [
        ("fail", Runner.Fail_fast);
        ("skip", Runner.Skip_line);
        ("retry", Runner.Retry_reads Iflow_fault.Retry.default);
      ]
  in
  Arg.(
    value & opt policy_conv Runner.Fail_fast
    & info [ "on-error" ]
        ~doc:
          "What to do when reading the event log fails: 'fail' stops the \
           run, 'skip' drops the read and continues (up to 100 \
           consecutive failures), 'retry' retries the read with \
           exponential backoff before failing.")

(* ----- event-log encoding ----- *)

type format = Format_jsonl | Format_bin | Format_auto

let format_term =
  let fmt_conv =
    Arg.enum
      [
        ("jsonl", Format_jsonl); ("bin", Format_bin); ("auto", Format_auto);
      ]
  in
  Arg.(
    value & opt fmt_conv Format_auto
    & info [ "format" ]
        ~doc:
          "Event-log encoding: 'jsonl' (one JSON object per line), 'bin' \
           (binary segments, see `infoflow convert`), or 'auto' (sniff the \
           magic bytes; stdin is always jsonl).")

(* the sniff: stdin can't be seeked, so it is always jsonl *)
let resolve_format fmt path =
  match fmt with
  | Format_jsonl -> `Jsonl
  | Format_bin -> `Bin
  | Format_auto ->
    if path <> "-" && Iflow_stream.Binlog.is_binlog path then `Bin else `Jsonl

(* Model/--resume resolution shared by `stream` and `serve`: returns the
   initial model plus the event-log offset and version id it was
   checkpointed at (0, 0 for a fresh --model). *)
let load_initial ~component (l : learner) =
  match (l.resume, l.model) with
  | Some ckpt, _ ->
    let model, offset, version =
      or_die (fun () ->
          Snapshot.recover
            ~on_skip:(fun ~path ~reason ->
              Obs_log.warn ~component "skipping damaged checkpoint %s: %s"
                path reason)
            ckpt)
    in
    Obs_log.info ~component "resuming from %s: version %d at offset %d" ckpt
      version offset;
    (model, offset, version)
  | None, Some path -> (or_die (fun () -> Model_io.load_beta_icm path), 0, 0)
  | None, None ->
    Obs_log.err ~component "provide --model or --resume";
    exit 1

(* What `stream` and `serve` both build from the learner flags over
   [model]: the runner cadence, the online learner, and its snapshot,
   starting at version [version] and event-log offset [offset]. *)
let start_learner (l : learner) ~version ~offset model =
  let snapshot =
    or_die (fun () ->
        Snapshot.create ?checkpoint_path:l.checkpoint ~keep:l.keep_checkpoints
          ~id:version ~offset model)
  in
  let drift =
    { Drift.default_config with window = l.drift_window; delta = l.drift_delta }
  in
  let online =
    or_die (fun () -> Online.create ~forget:l.forget ~drift model)
  in
  ( { Runner.batch = l.batch; checkpoint_every = l.checkpoint_every },
    online,
    snapshot )

(* the runner's [on_degraded] callback *)
let log_degraded ~component ~stage e =
  Obs_log.warn ~component "degraded (%s): %s" stage (Printexc.to_string e)

(* end-of-run quarantine-rate gate shared by `stream` and `serve` *)
let check_quarantine_rate ~component (l : learner) (s : Online.stats) =
  match l.max_quarantine_rate with
  | None -> ()
  | Some limit ->
    let quarantined = Online.quarantined s in
    let rate =
      if s.Online.applied = 0 then
        if quarantined = 0 then 0.0 else Float.infinity
      else float_of_int quarantined /. float_of_int s.Online.applied
    in
    if rate > limit then begin
      Obs_log.err ~component
        "quarantine rate %.4f (%d quarantined / %d applied) exceeds limit %.4f"
        rate quarantined s.Online.applied limit;
      exit exit_quarantine
    end

(* ----- the server ----- *)

(* where `serve` listens and `requests` connects *)
let host_term =
  Arg.(
    value & opt string Server.default_config.Server.host
    & info [ "host" ] ~doc:"Server address (serve binds it).")

let port_term =
  Arg.(
    value & opt int 7411
    & info [ "port" ]
        ~doc:
          "Server TCP port; for serve, 0 picks an ephemeral one (printed on \
           startup).")

(* every `serve` flag that sets a Server.config field *)
let server_term =
  let d = Server.default_config in
  let count name default doc =
    Arg.(value & opt int default & info [ name ] ~doc)
  in
  let millis name doc =
    Arg.(value & opt (some int) None & info [ name ] ~doc)
  in
  let workers =
    count "workers" d.Server.workers
      "Requests executing at once: each connection thread runs its own \
       query once it holds one of these execution slots."
  in
  let queue_capacity =
    count "queue-capacity" d.Server.queue_capacity
      "Requests that may wait for an execution slot, first come first \
       served; requests beyond it are shed immediately with an \
       over_capacity response."
  in
  let max_connections =
    count "max-connections" d.Server.max_connections
      "Concurrent connections before shedding at accept time."
  in
  let quota_rate =
    Arg.(
      value
      & opt (some float) None
      & info [ "quota-rate" ]
          ~doc:
            "Per-tenant sustained queries/second (token-bucket refill \
             rate); unset disables quotas.")
  in
  let quota_burst =
    Arg.(
      value & opt float Quota.default_config.Quota.burst
      & info [ "quota-burst" ]
          ~doc:"Per-tenant burst size (token-bucket capacity).")
  in
  let flight_capacity =
    count "flight-capacity" d.Server.flight_capacity
      "Flight-recorder ring size: the last N requests stay reconstructible \
       via GET /debug/requests (id, answer path, version, phase-decomposed \
       latency). 0 disables the ring (slow-query logging still works)."
  in
  let slow_query_ms =
    millis "slow-query-ms"
      "Log a structured slow-query line (with the full flight record) for \
       any request whose admission-to-serialized wall time reaches this \
       many milliseconds; unset disables."
  in
  let default_deadline_ms =
    millis "default-deadline-ms"
      "Deadline applied to requests that do not carry their own \
       (deadline_ms field or X-Deadline-Ms header); unset means no \
       implicit deadline."
  in
  let max_deadline_ms =
    millis "max-deadline-ms"
      "Clamp client-supplied deadlines down to this cap; unset leaves them \
       unclamped."
  in
  let read_timeout_ms =
    Arg.(
      value
      & opt (some int) d.Server.read_timeout_ms
      & info [ "read-timeout-ms" ]
          ~doc:
            "Read window of the slow-loris guard: a peer sending nothing \
             inside one window, or one whose request (a JSONL line, or an \
             HTTP request through its body) is still incomplete 4 windows \
             after its first read, gets a typed bad_request and is \
             disconnected. 0 disables.")
  in
  let make host port workers queue_capacity max_connections quota_rate
      quota_burst flight_capacity slow_query_ms default_deadline_ms
      max_deadline_ms read_timeout_ms =
    {
      Server.host;
      port;
      workers;
      queue_capacity;
      max_connections;
      quota =
        Option.map (fun rate -> { Quota.rate; burst = quota_burst }) quota_rate;
      flight_capacity;
      slow_query_ms;
      default_deadline_ms;
      max_deadline_ms;
      (* --read-timeout-ms 0 switches the guard off *)
      read_timeout_ms = (match read_timeout_ms with Some 0 -> None | v -> v);
    }
  in
  Term.(
    const make $ host_term $ port_term $ workers $ queue_capacity
    $ max_connections $ quota_rate $ quota_burst $ flight_capacity
    $ slow_query_ms $ default_deadline_ms $ max_deadline_ms $ read_timeout_ms)
