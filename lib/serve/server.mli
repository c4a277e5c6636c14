(** The network serving layer: a long-lived TCP front end over one
    {!Iflow_engine.Engine}, answering flow queries while evidence posted
    to it is learned and hot-swapped in underneath them.

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
      {!Iflow_engine.Engine.query} itself, chains in order on its own
      domain. Answers are bit-identical to [infoflow batch] on the same
      model and seed: the engine derives per-query seeds from (seed,
      model digest, query) alone, so neither concurrency, arrival
      order nor the serving domain can perturb an estimate.

    {b Serving domains.} The server runs on [d] domains, [d] being the
    engine's [config.domains] (default
    [Domain.recommended_domain_count ()]); OCaml threads of one domain
    never run in parallel, so this is what lets sessions answer on
    several cores at once. One acceptor thread, in the domain that
    called {!start} (index 0), places each connection on the domain
    with the fewest open connections, the lowest index on ties. Domain
    0 starts the connection's thread itself; each other domain has a
    mailbox that its own thread waits on, and starts the threads of
    the connections posted to it. {!Slots} stays the one admission line
    across domains.

    {b Hot-swap consistency.} The engine holds model, digest and
    version id as one triple ({!Iflow_engine.Engine.swap}); an answer
    reports the digest and id its query captured, and [/healthz] the
    engine's current pair, so no pair is ever torn. While a swap fails,
    the engine keeps serving the last-good version and [/healthz]
    reports [degraded] — serving never stops because learning
    hiccuped.

    {b Evidence.} A server created with a [learner] applies each
    [POST /evidence] body on the connection thread that read it: its
    non-blank lines go through {!Iflow_stream.Runner.feed} in order,
    under one learner lock shared by all connections. Every batch they
    complete is published and swapped into the engine before the
    [202 {"accepted":N}] reply leaves, so the next answer and [/healthz]
    already carry the new version. Without a learner, [/evidence]
    answers a typed [bad_request] (404).

    {b Observability.} Every stage records into {!Iflow_obs.Metrics}
    ([iflow_serve_*]: the request SLO histogram, shed and
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
    [engine.sample] trace span. One {!Iflow_obs.Flight}
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
    [default_deadline_ms] — clamped to [max_deadline_ms]. The member
    and the header follow {!Iflow_mcmc.Cancel.check_ms}: an integer
    from 1 to {!Iflow_mcmc.Cancel.max_budget_ms}, anything else a
    [bad_request]. The budget becomes an {!Iflow_mcmc.Cancel} deadline
    from admission.
    Admission refuses [deadline_unmeetable] when the recent overhead
    floor already exceeds the budget: the server's own EWMA of queue
    wait + serialize time over the last requests that took a slot,
    kept whether or not the flight recorder is on (after 32 such
    requests). A request whose deadline passed while it waited for a
    slot answers [deadline_exceeded] {e before} any sampling; the
    engine polls the token at round boundaries and mid-burn-in, and
    answers with the rounds that completed (flagged
    ["partial":true], never cached) or, with none, a typed
    [deadline_exceeded].
    Every deadline-carrying request settles into exactly one outcome
    counted by [iflow_serve_deadline_total{outcome=
    ok|partial|deadline_exceeded|deadline_unmeetable}]. Requests
    without deadlines run exactly as before — no clock is read
    mid-draw on their behalf, and answers stay bit-for-bit identical
    with the machinery compiled in.

    {b Testing without a socket.} Both dialects answer a query line
    through {!answer_line}, and the HTTP dialect a parsed request
    through {!route}; a server that is {!create}d but never
    {!start}ed answers both. *)

type config = {
  host : string;            (** bind address, default 127.0.0.1 *)
  port : int;               (** 0 picks an ephemeral port *)
  queue_capacity : int;     (** requests that may wait for a slot — the
                                knob that trades queueing delay for
                                shed rate *)
  workers : int;            (** requests executing at once (the
                                admission gate's slots) *)
  max_connections : int;    (** concurrent connections before shedding
                                at accept time *)
  quota : Quota.config option;  (** per-tenant buckets; [None] = off *)
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
(** 127.0.0.1:0, queue 64, 2 workers, 1024 connections, no quota,
    flight ring 1024, slow-query logging off, no deadlines, 30 s read
    timeout. The listen(2) backlog (128), the line cap of both dialects
    ({!Sockio.max_line_bytes}) and the HTTP body cap
    ({!Http.read_request}'s 8 MiB) are fixed. *)

type t

val create :
  ?config:config -> ?gate:(unit -> unit) -> ?learner:Iflow_stream.Runner.t ->
  engine:Iflow_engine.Engine.t -> unit -> t
(** Wrap an engine; answers carry its version tag, so swap a resumed
    version in before {!start} ({!Iflow_stream.Runner.start} does).
    [learner], when given, must have been started on [engine]; the
    server feeds it [POST /evidence] lines and never finishes it — call
    {!Iflow_stream.Runner.finish} after {!wait} to publish the partial
    last batch. [gate], when given, is called on the
    connection thread once a request holds its slot, before its queue
    wait is read and its deadline checked — a test hook for
    deterministically holding the slots (and thus filling the line of
    waiters). Raises [Invalid_argument] on a nonsensical config,
    including a millisecond field that fails
    {!Iflow_mcmc.Cancel.check_ms}. *)

val start : t -> unit
(** Bind, listen, spawn the serving domains past the caller's own, and
    start the accept thread, which places each connection on a domain
    where its one thread runs; returns immediately. Raises
    [Unix.Unix_error] when the port cannot be bound,
    [Invalid_argument] when already started, and what
    [Domain.spawn] raises when a domain cannot start (the domains
    already started are joined and the port is released first). *)

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
    answer (an evidence post in flight finishes applying its lines)
    and closed, then close every serving domain's mailbox and join
    the domain. A peer that stops reading holds the wait for at most
    one [read_timeout_ms] window (the send timeout); with the guard
    off, until it reads or goes away. Idempotent. *)

(** {1 The request path} *)

val answer_line :
  t -> ?tenant:string -> ?rid:string -> ?deadline_ms:int -> lineno:int ->
  string -> string option
(** Answer one query line, as both dialects do: decode it, admit it
    (quota, deadline floor, slot), run it, and return its one reply
    line (no trailing newline) — an answer or a typed error, never an
    exception. A blank line gets [None]. [tenant] (default
    ["anonymous"]) and [rid] apply unless the line names its own
    ["tenant"] / ["request_id"]; [deadline_ms] (already checked) is the
    budget unless the line carries a ["deadline_ms"] member; [lineno]
    numbers a [bad_request]'s message. *)

val route : t -> Http.request -> int * (string * string) list * string
(** The HTTP dialect's answer to one parsed request: its status, extra
    response headers (for {!Http.response}) and body. *)

(** {1 Learner state} *)

val current_version : t -> int
(** The version id the engine serves now. *)

val degraded : t -> bool
(** The engine serves an older version than the learner last
    published: a swap failed and none has succeeded since. *)

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
  evidence_lines : int;  (** applied via [POST /evidence] *)
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
