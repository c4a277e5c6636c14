(** The network serving layer: a long-lived TCP front end over one
    {!Iflow_engine.Engine}, answering flow queries while the streaming
    learner hot-swaps model versions underneath it.

    {b Dialects.} The server sniffs the first line of every connection:
    an HTTP request-line gets the HTTP surface ([POST /query],
    [POST /evidence], [GET /metrics], [GET /healthz], one request per
    connection); anything else is a raw JSONL session — each line a
    {!Iflow_engine.Query} object (plus optional ["id"]/["tenant"]
    fields), each answer one {!Wire} line, connection held open
    (netcat-friendly). Both dialects share the same admission path.

    {b Admission pipeline.} Each connection has one thread, and that
    thread carries every request it decodes through
    decode → quota → slot → execute → respond:
    - a per-tenant token bucket ({!Quota}, keyed by the ["tenant"]
      field or [X-Tenant] header) sheds sustained abusers with a typed
      [quota_exceeded] response and a retry hint;
    - the admission gate ({!Slots}) lets [workers] requests execute at
      once and is the {e only} place requests wait, first come first
      served; when [queue_capacity] are already waiting the request is
      refused {e immediately} with [over_capacity] — latency under
      overload stays bounded because backlog cannot grow;
    - holding a slot, the connection thread runs
      {!Iflow_engine.Engine.query} itself (whose chains fan out over
      the domain pool). Answers are bit-identical to [infoflow batch]
      on the same model and seed: the engine derives per-query seeds
      from (seed, model digest, query) alone, so neither concurrency
      nor arrival order can perturb an estimate.

    {b Hot-swap consistency.} The engine holds model, digest and
    version id as one triple ({!Iflow_engine.Engine.swap}); an answer
    reports the digest and id its query captured, and [/healthz] the
    engine's current pair, so no pair is ever torn. While a swap fails,
    the engine keeps serving the last-good version and [/healthz]
    reports [degraded] — serving never stops because learning
    hiccuped.

    {b Observability.} Every stage records into {!Iflow_obs.Metrics}
    ([iflow_serve_*]: request/queue-wait SLO histograms, shed and
    degraded counters, queue depth, active connections, and the
    per-tenant [iflow_serve_phase_seconds] decomposition with phases
    [queue_wait] / [plan] / [sample] / [serialize]), scrapeable live at
    [GET /metrics].

    {b Request ids and the flight recorder.} Every decoded query line
    gets a request id — client-supplied via a ["request_id"] field
    (JSONL) or [X-Request-Id] header (HTTP; batched bodies suffix
    [-<lineno>] per line), server-minted otherwise — echoed on every
    answer and error line as ["request_id"] (and back in the
    [X-Request-Id] response header when the client supplied one). The
    id is passed to {!Iflow_engine.Engine.query}, which tags the
    [engine.query] trace span and links the connection thread and the
    pool domains with Chrome-trace flow events. One {!Iflow_obs.Flight}
    record per line — answer path, version/digest, the full phase
    decomposition in nanoseconds, convergence diagnostics or typed
    error — lands in the ring served by [GET /debug/requests?n=], and
    requests over [slow_query_ms] additionally log a structured
    slow-query line carrying the same record. None of this can perturb
    answers: ids and timings never reach the RNG, the cache key, or the
    result.

    {b Deadlines and cancellation.} A request may carry a deadline —
    a ["deadline_ms"] JSON member (JSONL or HTTP body line), an
    [X-Deadline-Ms] header covering an HTTP body, or the server-wide
    [default_deadline_ms] — clamped to [max_deadline_ms]. The budget
    becomes an {!Iflow_mcmc.Cancel} token; a budget over
    {!Iflow_mcmc.Cancel.max_budget_ms} is a [bad_request].
    Admission refuses [deadline_unmeetable] when the recent overhead
    floor (queue-wait + serialize EWMA from the flight recorder)
    already exceeds the budget; a request whose deadline passed while
    it waited for a slot answers [deadline_exceeded] {e before} any
    sampling; the
    engine polls the token at round boundaries and mid-burn-in, and
    answers with whatever converged rounds it has (flagged
    ["partial":true], never cached) or a typed [deadline_exceeded].
    Every deadline-carrying request settles into exactly one outcome
    counted by [iflow_serve_deadline_total{outcome=
    ok|partial|deadline_exceeded|deadline_unmeetable}]. Requests
    without deadlines run exactly as before — the token is never
    consulted mid-draw on their behalf, and answers stay bit-for-bit
    identical with the machinery compiled in. *)

type config = {
  host : string;            (** bind address, default 127.0.0.1 *)
  port : int;               (** 0 picks an ephemeral port *)
  backlog : int;            (** listen(2) backlog *)
  queue_capacity : int;     (** requests that may wait for a slot — the
                                knob that trades queueing delay for
                                shed rate *)
  workers : int;            (** requests executing at once (the
                                admission gate's slots) *)
  max_connections : int;    (** concurrent connections before shedding
                                at accept time *)
  quota : Quota.config option;  (** per-tenant buckets; [None] = off *)
  ingest_capacity : int;    (** bounded evidence queue for [POST /evidence] *)
  max_line_bytes : int;     (** per-line cap, both dialects *)
  max_body_bytes : int;     (** HTTP body cap *)
  flight_capacity : int;    (** flight-recorder ring size; {!start}
                                (re)configures the process-global
                                {!Iflow_obs.Flight} ring to this many
                                records; 0 turns the ring off, also
                                when an earlier server enabled it *)
  slow_query_ms : int option;
      (** log a structured slow-query line (level [warn], full flight
          record attached) for any request whose admission-to-serialized
          wall time reaches this many milliseconds; [None] = off *)
  default_deadline_ms : int option;
      (** deadline applied to requests that do not carry their own
          (["deadline_ms"] member / [X-Deadline-Ms] header);
          [None] = no implicit deadline *)
  max_deadline_ms : int option;
      (** client-supplied deadlines are clamped down to this cap;
          [None] = unclamped *)
  read_timeout_ms : int option;
      (** the read window of the slow-loris guard ({!Sockio.guard}):
          a peer that sends {e nothing} inside one window, or whose
          request (a JSONL line, or an HTTP request through its body)
          is still incomplete 4 windows after its first read, gets a
          typed [bad_request] and the connection is closed. Time spent
          answering a request never counts. [None] disables the
          guard. *)
}

val default_config : config
(** 127.0.0.1:0, backlog 128, queue 64, 2 workers, 1024 connections,
    no quota, ingest queue 65536, 1 MiB lines, 8 MiB bodies, flight
    ring 1024, slow-query logging off, no deadlines, 30 s read
    timeout. *)

type t

val create :
  ?config:config -> ?gate:(unit -> unit) ->
  engine:Iflow_engine.Engine.t -> unit -> t
(** Wrap an engine; answers carry its version tag, so swap a resumed
    version in before {!start}. [gate], when given, is called on the
    connection thread once a request holds its slot, before its queue
    wait is read and its deadline checked — a test hook for
    deterministically holding the slots (and thus filling the line of
    waiters). Raises [Invalid_argument] on a nonsensical config,
    including a millisecond field above
    {!Iflow_mcmc.Cancel.max_budget_ms}. *)

val start : t -> unit
(** Bind, listen, and spawn the accept thread, which spawns one thread
    per connection; returns immediately. Raises [Unix.Unix_error] when the port cannot
    be bound, [Invalid_argument] when already started. *)

val port : t -> int
(** The bound port (the ephemeral one when config said 0). Only valid
    after {!start}. *)

val wait : t -> unit
(** Block until {!stop} completes (the CLI parks its main thread
    here). *)

val stop : t -> unit
(** Graceful shutdown: stop accepting, close the admission gate (every
    waiting and later request answers [shutting_down] without
    sampling, while requests holding a slot finish normally), end
    every connection's input and wait until each has written its last
    answer and closed, then close the ingest queue (ending a
    {!ingest_source} consumer). A peer that stops reading holds the
    wait for at most one [read_timeout_ms] window (the send timeout);
    with the guard off, until it reads or goes away. Idempotent. *)

(** {1 Ingest bridge} — evidence arriving over the network.

    [POST /evidence] body lines land in a bounded queue;
    {!ingest_source} adapts it to the line source
    {!Iflow_stream.Runner.run} pulls from, so the CLI runs learner and
    server in one process and models hot-swap under live traffic. *)

val ingest_line : t -> string -> bool
(** Offer one evidence line; [false] when the queue is full or closed
    (the HTTP handler turns that into [over_capacity]). *)

val ingest_source : t -> unit -> string option
(** Blocking puller over the evidence queue; [None] after {!stop}. *)

val ingest_pending : t -> int

(** {1 Learner integration} *)

val on_publish : t -> Iflow_stream.Snapshot.version -> unit
(** Hook for {!Iflow_stream.Runner.run}'s [on_publish]: records the
    published id and sets the [iflow_serve_degraded] gauge. *)

val note_degraded : t -> stage:string -> exn -> unit
(** Hook for [on_degraded]: logs the absorbed fault. *)

val current_version : t -> int
(** The version id the engine serves now. *)

val degraded : t -> bool
(** The engine serves an older version than {!on_publish} last saw: a
    swap failed and none has succeeded since. *)

(** {1 Introspection} *)

type stats = {
  connections : int;     (** accepted *)
  active : int;          (** open right now *)
  requests : int;        (** decoded query requests *)
  answered : int;        (** answered with an estimate *)
  shed_capacity : int;   (** refused: every slot busy, line full *)
  shed_quota : int;      (** refused: tenant bucket dry *)
  shed_deadline : int;   (** refused: [deadline_unmeetable] *)
  bad_requests : int;    (** undecodable or unanswerable *)
  engine_errors : int;   (** [Chains_failed] surfaced as 500s *)
  evidence_lines : int;  (** accepted via [POST /evidence] *)
}

val stats : t -> stats
(** Every count but [active] is read from the process-wide
    {!Iflow_obs.Metrics.default} registry — the very counters
    [GET /metrics] exposes — so it covers every server in the process
    since it started (the CLI runs one). [active] is this server's. *)

val queue_depth : t -> int
(** Requests waiting for a slot right now. *)

val health_json : t -> string
(** The [GET /healthz] body (also handy for tests). *)
