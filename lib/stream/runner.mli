(** The ingest loop: feeds event-log records through an {!Online}
    updater, publishing {!Snapshot} versions at batch boundaries,
    hot-swapping them into an optional engine, applying forgetting, and
    writing periodic checkpoints.

    The core is push-style ({!start}, {!feed}, {!finish}): the server
    feeds each [POST /evidence] line on the connection thread that read
    it. {!run} and {!run_binlog} are pull loops over the same core.

    Cadences:
    - a version is published (and the engine swapped, and one
      {!Online.decay} step applied) every [batch] {e applied} events,
      and once more at {!finish} if anything is pending;
    - a checkpoint is written at the first publish at least
      [checkpoint_every] {e lines} after the previous one (lines, not
      events, so a recovered run skips exactly the consumed prefix —
      quarantined lines included), and once more at {!finish}.

    Replay determinism: with forgetting off, any [batch] size — and any
    checkpoint/recover split — yields the same final model bit for bit,
    because publishing only freezes the accumulator.

    {b Supervision.} Read failures from a pulled source follow the
    [on_error] policy; engine-swap and checkpoint-write failures never
    kill the run: the engine keeps serving the last successfully
    swapped version and ingest continues (counted in
    [iflow_stream_degraded_swaps_total] /
    [iflow_stream_checkpoint_failures_total] and surfaced in the
    {!report}). *)

type error_policy =
  | Fail_fast      (** re-raise the first read error (default) *)
  | Skip_line
      (** count the error ([iflow_stream_read_errors_total]), notify
          [on_degraded], pull the next line; gives up (re-raises) after
          100 {e consecutive} failures so a permanently dead source
          cannot spin the loop forever *)
  | Retry_reads of Iflow_fault.Retry.policy
      (** retry the same read with backoff; a read that exhausts the
          policy is counted and re-raised *)

type config = {
  batch : int;                   (** applied events per published version *)
  checkpoint_every : int option; (** lines between checkpoints *)
}

val default_config : config
(** batch 256, no checkpoints. *)

type report = {
  lines : int;                (** log lines consumed *)
  stats : Online.stats;
  final : Snapshot.version;   (** the last published version *)
  versions_published : int;   (** published by this run *)
  checkpoints_written : int;  (** written by this run *)
  cache_evictions : int;      (** engine cache entries retired by swaps *)
  drift_alerts : Drift.alert list;
  read_errors : int;          (** reads absorbed by the [on_error] policy *)
  swap_failures : int;        (** swaps degraded to the last-good version *)
  checkpoint_failures : int;  (** checkpoint writes that failed post-retry *)
  wall_ns : int;              (** monotonic wall time of the run *)
  events_per_sec : float;     (** applied events per wall second *)
}

type t
(** One ingest in progress. Not thread-safe: callers feeding it from
    several threads hold one lock around {!feed} and {!finish}. *)

val start :
  ?engine:Iflow_engine.Engine.t ->
  ?skip:int ->
  ?on_degraded:(stage:string -> exn -> unit) ->
  ?on_alert:(Drift.alert -> unit) ->
  ?on_publish:(Snapshot.version -> unit) ->
  ?on_quarantine:(line:int -> reason:string -> unit) ->
  config -> Online.t -> Snapshot.t -> t
(** Begin an ingest whose log offset starts at [skip] (lines already
    absorbed, e.g. a recovered checkpoint's offset). When [engine] is
    given it is swapped onto the snapshot's current version here, and
    after every publish, before [on_publish] sees it.
    [on_degraded ~stage e] fires once per absorbed fault with [stage]
    one of ["read"] (pull loops only), ["swap"], ["checkpoint"].
    [on_quarantine ~line ~reason] fires once per quarantined event with
    the 1-based line number of the event log — [reason] already carries
    the same line number (and, for malformed JSON, the byte offset of
    the damage) via {!Online.apply_line}. Failpoint: [runner.swap] per
    engine swap. Raises [Invalid_argument] on [batch < 1], a
    non-positive [checkpoint_every] or a negative [skip]. *)

val feed : t -> string -> unit
(** Absorb one JSONL event line; when it completes a batch, publish,
    swap, decay and (when due) checkpoint before returning. *)

val published : t -> int
(** The id of the snapshot's current version: the last one published. *)

val finish : t -> report
(** Publish the pending partial batch (if any), write the final
    checkpoint when checkpoints are on, and report. [read_errors] is 0:
    reads are the pull loops' business. *)

val run :
  ?engine:Iflow_engine.Engine.t ->
  ?skip:int ->
  ?on_error:error_policy ->
  ?on_degraded:(stage:string -> exn -> unit) ->
  ?on_alert:(Drift.alert -> unit) ->
  ?on_publish:(Snapshot.version -> unit) ->
  ?on_quarantine:(line:int -> reason:string -> unit) ->
  config -> Online.t -> Snapshot.t -> (unit -> string option) -> report
(** [run config online snapshot next] pulls lines until [next ()]
    returns [None], {!feed}ing each to a {!start}ed ingest, and returns
    its {!finish} report. [skip] discards that many leading lines first
    (the offset of a recovered checkpoint; skip reads are never retried
    or skipped — a failure there means the resume point is
    unreachable). The other arguments are {!start}'s. Failpoint:
    [runner.read] per pull. Raises [Invalid_argument] as {!start} does,
    and [Failure] when [skip] runs past the end of the source. *)

val run_binlog :
  ?engine:Iflow_engine.Engine.t ->
  ?skip:int ->
  ?on_error:error_policy ->
  ?on_degraded:(stage:string -> exn -> unit) ->
  ?on_alert:(Drift.alert -> unit) ->
  ?on_publish:(Snapshot.version -> unit) ->
  ?on_quarantine:(line:int -> reason:string -> unit) ->
  config -> Online.t -> Snapshot.t -> Binlog.Reader.t -> report
(** The binary-log twin of {!run}: the same loop, fed one record at a
    time by {!Binlog.Reader.next} and absorbed by
    {!Online.apply_record}. Cadences, supervision, drift alerts and the
    report are as in {!run}, with "line" meaning the event-slot offset
    in the binary log (so checkpoints resume with [skip] exactly as on
    the JSONL path), and every published model equals the JSONL
    path's over the same events. Decode errors quarantine with
    {!Binlog.error_message} as the reason (no ["line N: "] prefix).
    Raises [Failure] when [skip] runs past the end of the log. *)

val lines_of_channel : in_channel -> unit -> string option
(** Reads one line per call; [EINTR] (a signal interrupting the read —
    e.g. SIGCHLD from a supervised child) is retried transparently
    rather than surfaced as [Sys_error]. *)

val lines_of_list : string list -> unit -> string option

val pp_report : Format.formatter -> report -> unit
