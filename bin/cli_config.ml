(* Cli_config — the reusable flag-spec layer of the infoflow CLI.

   Every subcommand used to carry its own copy of the seed /
   observability / MCMC / engine / checkpoint / on-error option
   parsing; the copies drifted (the CLI once shipped MCMC defaults that
   silently disagreed with the library). This module is the single
   source of truth: subcommands compose the terms below and call the
   matching setup/loader helpers, so a knob means the same thing in
   `estimate`, `batch`, `stream`, and `serve`. *)
open Cmdliner
module Estimator = Iflow_mcmc.Estimator
module Engine = Iflow_engine.Engine
module Query = Iflow_engine.Query
module Beta_icm = Iflow_core.Beta_icm
module Model_io = Iflow_io.Model_io
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

(* engine knobs shared by `estimate`, `batch`, and `serve`; each query
   runs on the domain that asks it, so `--domains` is `serve`'s alone *)
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

(* ----- argument converters ----- *)

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

(* the queries of a JSONL file in order, blank lines skipped; each
   undecodable line's message (which names the line) goes to
   [on_error] *)
let read_queries path ~on_error =
  let ic = or_die (fun () -> open_in path) in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () ->
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
      value & opt int Iflow_stream.Runner.default_config.Iflow_stream.Runner.batch
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
      & opt int Iflow_stream.Drift.default_config.Iflow_stream.Drift.window
      & info [ "drift-window" ] ~doc:"Per-edge trials per drift-test window.")
  in
  let drift_delta =
    Arg.(
      value
      & opt float Iflow_stream.Drift.default_config.Iflow_stream.Drift.delta
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
        ("fail", Iflow_stream.Runner.Fail_fast);
        ("skip", Iflow_stream.Runner.Skip_line);
        ("retry", Iflow_stream.Runner.Retry_reads Iflow_fault.Retry.default);
      ]
  in
  Arg.(
    value & opt policy_conv Iflow_stream.Runner.Fail_fast
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
          Iflow_stream.Snapshot.recover
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

let drift_config (l : learner) =
  {
    Iflow_stream.Drift.default_config with
    window = l.drift_window;
    delta = l.drift_delta;
  }

(* end-of-run quarantine-rate gate shared by `stream` and `serve` *)
let check_quarantine_rate ~component (l : learner)
    (s : Iflow_stream.Online.stats) =
  match l.max_quarantine_rate with
  | None -> ()
  | Some limit ->
    let quarantined = Iflow_stream.Online.quarantined s in
    let rate =
      if s.Iflow_stream.Online.applied = 0 then
        if quarantined = 0 then 0.0 else Float.infinity
      else
        float_of_int quarantined /. float_of_int s.Iflow_stream.Online.applied
    in
    if rate > limit then begin
      Obs_log.err ~component
        "quarantine rate %.4f (%d quarantined / %d applied) exceeds limit %.4f"
        rate quarantined s.Iflow_stream.Online.applied limit;
      exit exit_quarantine
    end
