module Engine = Iflow_engine.Engine
module Metrics = Iflow_obs.Metrics
module Trace = Iflow_obs.Trace
module Clock = Iflow_obs.Clock
module Fail = Iflow_fault.Fail
module Retry = Iflow_fault.Retry

let m_published =
  Metrics.counter ~help:"Model versions published"
    "iflow_stream_versions_published_total"

let m_checkpoints =
  Metrics.counter ~help:"Checkpoints written" "iflow_stream_checkpoints_total"

let m_offset =
  Metrics.gauge ~help:"Log offset (lines consumed) — resume point / ingest lag"
    "iflow_stream_ingest_offset"

let m_batch_seconds =
  Metrics.histogram ~scale:1e-9
    ~help:"Wall time from one publish to the next (evidence absorption \
           included)"
    "iflow_stream_batch_seconds"

let m_publish_seconds =
  Metrics.histogram ~scale:1e-9
    ~help:"Wall time of freeze + publish + engine swap + decay"
    "iflow_stream_publish_seconds"

let m_swap_seconds =
  Metrics.histogram ~scale:1e-9
    ~help:"Wall time of hot-swapping a published version into the engine"
    "iflow_stream_swap_seconds"

let m_read_errors =
  Metrics.counter
    ~help:"Ingest-source read failures absorbed by the on_error policy"
    "iflow_stream_read_errors_total"

let m_swap_failures =
  Metrics.counter
    ~help:"Engine swaps that failed — the engine keeps serving the \
           last-good version (degraded)"
    "iflow_stream_degraded_swaps_total"

let m_checkpoint_failures =
  Metrics.counter
    ~help:"Checkpoint writes that failed after retries (ingest continues)"
    "iflow_stream_checkpoint_failures_total"

type error_policy = Fail_fast | Skip_line | Retry_reads of Retry.policy

type config = { batch : int; checkpoint_every : int option }

let default_config = { batch = 256; checkpoint_every = None }

type report = {
  lines : int;
  stats : Online.stats;
  final : Snapshot.version;
  versions_published : int;
  checkpoints_written : int;
  cache_evictions : int;
  drift_alerts : Drift.alert list;
  read_errors : int;
  swap_failures : int;
  checkpoint_failures : int;
  wall_ns : int;
  events_per_sec : float;
}

let is_eintr = function
  | Unix.Unix_error (Unix.EINTR, _, _) -> true
  | Sys_error msg ->
    (* channel reads surface errno as strerror text *)
    let needle = "Interrupted system call" in
    let n = String.length needle and h = String.length msg in
    let rec go i = i + n <= h && (String.sub msg i n = needle || go (i + 1)) in
    go 0
  | _ -> false

let lines_of_channel ic () =
  (* EINTR is not data loss — a signal (SIGCHLD from a supervised
     child, a profiler tick) interrupted the read before any byte moved.
     Resume the same read instead of killing the ingest loop. *)
  let rec go () =
    match input_line ic with
    | line -> Some line
    | exception End_of_file -> None
    | exception e when is_eintr e -> go ()
  in
  go ()

let lines_of_list lines =
  let rest = ref lines in
  fun () ->
    match !rest with
    | [] -> None
    | line :: tl ->
      rest := tl;
      Some line

(* Skip_line re-pulls after a failed read; a source whose fault is
   permanent (closed channel, dead disk) would spin forever, so give up
   after this many consecutive failures. *)
let max_consecutive_read_errors = 100

let check_config what config skip =
  if config.batch < 1 then invalid_arg (what ^ ": batch must be >= 1");
  (match config.checkpoint_every with
  | Some k when k < 1 -> invalid_arg (what ^ ": checkpoint_every must be >= 1")
  | _ -> ());
  if skip < 0 then invalid_arg (what ^ ": negative skip")

(* The push-style core behind both pull loops and the server: [start]
   builds the state and swaps the engine onto the current version,
   [feed] absorbs one record and publishes every [config.batch] applied
   events, [finish] publishes the pending tail. *)
type t = {
  config : config;
  online : Online.t;
  snapshot : Snapshot.t;
  engine : Engine.t option;
  on_degraded : stage:string -> exn -> unit;
  on_alert : Drift.alert -> unit;
  on_publish : Snapshot.version -> unit;
  on_quarantine : line:int -> reason:string -> unit;
  t_start : int;
  mutable t_last_publish : int;
  mutable lines : int;
  mutable pending : int;
  mutable last_checkpoint : int;
  mutable evictions : int;
  mutable published : int;
  mutable checkpoints : int;
  mutable seen_alerts : int;
  mutable swap_failures : int;
  mutable checkpoint_failures : int;
}

let swap st =
  match st.engine with
  | Some e -> (
    let t0 = Clock.now_ns () in
    match
      Fail.point "runner.swap";
      Snapshot.swap_into st.snapshot e
    with
    | evicted ->
      st.evictions <- st.evictions + evicted;
      ignore (Trace.phase ~hist:m_swap_seconds "stream.swap" ~t0)
    | exception ex ->
      (* the engine keeps answering from the last version it
         successfully swapped onto; the next publish retries *)
      st.swap_failures <- st.swap_failures + 1;
      Metrics.inc m_swap_failures;
      st.on_degraded ~stage:"swap" ex)
  | None -> ()

let drain_alerts st =
  match Online.drift st.online with
  | None -> ()
  | Some d ->
    let count = Drift.alert_count d in
    if count > st.seen_alerts then begin
      List.iteri
        (fun i a ->
          if i >= st.seen_alerts then begin
            if Trace.enabled () then
              Trace.instant "stream.drift_alert"
                ~args:
                  [
                    ("edge", Trace.Int a.Drift.edge);
                    ("reference_rate", Trace.Float a.Drift.reference_rate);
                    ("window_rate", Trace.Float a.Drift.window_rate);
                  ]
                ();
            st.on_alert a
          end)
        (Drift.alerts d);
      st.seen_alerts <- count
    end

let write_checkpoint st =
  match Snapshot.checkpoint st.snapshot with
  | () ->
    st.checkpoints <- st.checkpoints + 1;
    Metrics.inc m_checkpoints;
    st.last_checkpoint <- st.lines
  | exception ex ->
    (* retries inside Snapshot.checkpoint are exhausted; keep
       ingesting — [last_checkpoint] stays put, so the next publish
       tries again, and recovery still has the previous generation *)
    st.checkpoint_failures <- st.checkpoint_failures + 1;
    Metrics.inc m_checkpoint_failures;
    st.on_degraded ~stage:"checkpoint" ex

let publish st =
  let t0 = Clock.now_ns () in
  let v =
    Snapshot.publish st.snapshot (Online.model st.online) ~offset:st.lines
  in
  swap st;
  (* forgetting is per published batch: evidence already absorbed
     loses weight (1 - lambda) before the next batch accumulates *)
  Online.decay st.online;
  st.published <- st.published + 1;
  st.pending <- 0;
  Metrics.inc m_published;
  Metrics.set m_offset (float_of_int st.lines);
  let t1 =
    t0
    + Trace.phase ~hist:m_publish_seconds
        ~args:[ ("offset", Trace.Int st.lines) ]
        "stream.publish" ~t0
  in
  Metrics.observe m_batch_seconds (t1 - st.t_last_publish);
  st.t_last_publish <- t1;
  st.on_publish v;
  match st.config.checkpoint_every with
  | Some k when st.lines - st.last_checkpoint >= k -> write_checkpoint st
  | _ -> ()

let start ?engine ?(skip = 0) ?(on_degraded = fun ~stage:_ _ -> ())
    ?(on_alert = ignore) ?(on_publish = ignore)
    ?(on_quarantine = fun ~line:_ ~reason:_ -> ()) config online snapshot =
  check_config "Runner.start" config skip;
  let t_start = Clock.now_ns () in
  let st =
    {
      config;
      online;
      snapshot;
      engine;
      on_degraded;
      on_alert;
      on_publish;
      on_quarantine;
      t_start;
      t_last_publish = t_start;
      lines = skip;
      pending = 0;
      last_checkpoint = skip;
      evictions = 0;
      published = 0;
      checkpoints = 0;
      seen_alerts = 0;
      swap_failures = 0;
      checkpoint_failures = 0;
    }
  in
  swap st;
  st

(* count one consumed log line whose record [apply] already absorbed *)
let settle st outcome =
  st.lines <- st.lines + 1;
  (match outcome with
  | `Applied -> st.pending <- st.pending + 1
  | `Quarantined reason -> st.on_quarantine ~line:st.lines ~reason);
  drain_alerts st;
  if st.pending >= st.config.batch then publish st

let feed st line =
  settle st (Online.apply_line ~lineno:(st.lines + 1) st.online line)

let published st = Snapshot.published st.snapshot

let finish st =
  if st.pending > 0 then publish st;
  if st.config.checkpoint_every <> None && st.last_checkpoint <> st.lines then
    write_checkpoint st;
  let wall_ns = Clock.now_ns () - st.t_start in
  let stats = Online.stats st.online in
  {
    lines = st.lines;
    stats;
    final = Snapshot.current st.snapshot;
    versions_published = st.published;
    checkpoints_written = st.checkpoints;
    cache_evictions = st.evictions;
    drift_alerts =
      (match Online.drift st.online with
      | Some d -> Drift.alerts d
      | None -> []);
    read_errors = 0;
    swap_failures = st.swap_failures;
    checkpoint_failures = st.checkpoint_failures;
    wall_ns;
    events_per_sec =
      (if wall_ns <= 0 then 0.0
       else
         float_of_int stats.Online.applied /. Clock.seconds_of_ns wall_ns);
  }

(* The pull loop behind both codecs: read a record with [next] under the
   [on_error] policy, hand it to [absorb], and report once the source
   is exhausted. *)
let pull_loop ~on_error st ~absorb next =
  let read_errors = ref 0 in
  let consecutive = ref 0 in
  let rec pull () =
    let attempt () =
      Fail.point "runner.read";
      next ()
    in
    match
      (match on_error with
      | Retry_reads policy -> Retry.with_policy policy attempt
      | Fail_fast | Skip_line -> attempt ())
    with
    | v ->
      consecutive := 0;
      v
    | exception e -> (
      match on_error with
      | Fail_fast -> raise e
      | Retry_reads _ ->
        incr read_errors;
        Metrics.inc m_read_errors;
        raise e
      | Skip_line ->
        incr read_errors;
        Metrics.inc m_read_errors;
        incr consecutive;
        if !consecutive > max_consecutive_read_errors then raise e
        else begin
          st.on_degraded ~stage:"read" e;
          pull ()
        end)
  in
  let rec loop () =
    match pull () with
    | None -> ()
    | Some record ->
      absorb st record;
      loop ()
  in
  loop ();
  { (finish st) with read_errors = !read_errors }

let run ?engine ?(skip = 0) ?(on_error = Fail_fast) ?on_degraded ?on_alert
    ?on_publish ?on_quarantine config online snapshot next =
  check_config "Runner.run" config skip;
  for _ = 1 to skip do
    if next () = None then
      failwith "Runner.run: resume offset is past the end of the log"
  done;
  let st =
    start ?engine ~skip ?on_degraded ?on_alert ?on_publish ?on_quarantine
      config online snapshot
  in
  pull_loop ~on_error st ~absorb:feed next

let run_binlog ?engine ?(skip = 0) ?(on_error = Fail_fast) ?on_degraded
    ?on_alert ?on_publish ?on_quarantine config online snapshot reader =
  check_config "Runner.run_binlog" config skip;
  if Binlog.Reader.skip reader skip < skip then
    failwith "Runner.run_binlog: resume offset is past the end of the log";
  let st =
    start ?engine ~skip ?on_degraded ?on_alert ?on_publish ?on_quarantine
      config online snapshot
  in
  pull_loop ~on_error st
    ~absorb:(fun st record -> settle st (Online.apply_record st.online record))
    (fun () -> Binlog.Reader.next reader)

let pp_report ppf (r : report) =
  Format.fprintf ppf
    "@[<v>%d lines: %a@,\
     final version %d (digest %s, offset %d); %d published, %d checkpoints, \
     %d cache evictions, %d drift alerts; %d read errors, %d degraded swaps, \
     %d checkpoint failures; %.3f s (%.0f events/s)@]"
    r.lines Online.pp_stats r.stats r.final.Snapshot.id
    (Iflow_core.Beta_icm.digest r.final.Snapshot.model)
    r.final.Snapshot.offset r.versions_published r.checkpoints_written
    r.cache_evictions
    (List.length r.drift_alerts)
    r.read_errors r.swap_failures r.checkpoint_failures
    (Iflow_obs.Clock.seconds_of_ns r.wall_ns)
    r.events_per_sec
