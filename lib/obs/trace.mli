(** Structured trace spans, written as Chrome [trace_event] records so
    a run opens directly in [chrome://tracing] or Perfetto.

    The sink is a process-global JSONL file: one event object per line,
    wrapped in a JSON array ([[] on open, [\]] on {!close}) — the exact
    shape both viewers ingest; a crash that skips {!close} leaves an
    unterminated array, which they also accept. Each record carries
    [{name, ph, ts, dur, pid, tid, args}] with [ts]/[dur] in
    microseconds from {!Clock}, [tid] the recording domain's id.

    With no sink installed, the trace side of an event costs one load
    and a branch. Writers from multiple domains serialise on one mutex — spans are per-query /
    per-publish constructs, not per-MH-step ones. *)

type arg = Int of int | Float of float | Str of string

val to_file : string -> unit
(** Install a sink writing to [path] (truncates). Replaces (and
    closes) any previous sink, and registers an [at_exit] {!close}
    exactly once per process — repeated installs are idempotent about
    the hook, so normal exits always terminate the JSON array. Raises
    [Sys_error] like [open_out]. *)

val close : unit -> unit
(** Terminate the JSON array and close the sink. Idempotent; a no-op
    when no sink is installed. *)

val enabled : unit -> bool

val phase :
  ?hist:Metrics.histogram -> ?args:(string * arg) list -> string -> t0:int ->
  int
(** [phase name ~t0] closes a phase that opened at the clock reading
    [t0] (a {!Clock.now_ns}). It reads the clock once more and feeds
    that one pair to every sink: it observes the duration into [hist],
    emits a complete ("ph":"X") event [name] covering the phase when a
    sink is installed, and returns the duration in nanoseconds for the
    caller's own record (an [Engine.phases] cell, a flight-record
    field). This is the only way the repo times a phase, so the
    histogram, the record and the trace never disagree. *)

val instant : string -> ?args:(string * arg) list -> unit -> unit
(** Emit an instant ("ph":"i") event, e.g. a drift alert. *)
