module Engine = Iflow_engine.Engine
module Query = Iflow_engine.Query
module Jsonl = Iflow_engine.Jsonl
module Metrics = Iflow_obs.Metrics
module Prometheus = Iflow_obs.Prometheus
module Log = Iflow_obs.Log
module Clock = Iflow_obs.Clock
module Trace = Iflow_obs.Trace
module Flight = Iflow_obs.Flight
module Snapshot = Iflow_stream.Snapshot
module Cancel = Iflow_mcmc.Cancel
module Retry = Iflow_fault.Retry

let m_connections =
  Metrics.counter ~help:"Connections accepted" "iflow_serve_connections_total"

let m_active =
  Metrics.gauge ~help:"Connections open right now"
    "iflow_serve_active_connections"

let m_requests =
  Metrics.counter ~help:"Query requests decoded (both dialects)"
    "iflow_serve_requests_total"

let m_answers =
  Metrics.counter ~help:"Query requests answered with an estimate"
    "iflow_serve_answers_total"

let shed_counter reason =
  Metrics.counter
    ~labels:[ ("reason", reason) ]
    ~help:"Requests refused by admission control"
    "iflow_serve_shed_total"

let m_shed_capacity = shed_counter "capacity"
let m_shed_quota = shed_counter "quota"
let m_shed_connections = shed_counter "connections"
let m_shed_deadline = shed_counter "deadline"

(* Final outcome of every deadline-carrying request; requests without
   a deadline never touch this family *)
let deadline_outcome outcome =
  Metrics.counter
    ~labels:[ ("outcome", outcome) ]
    ~help:"Deadline-carrying requests by final outcome"
    "iflow_serve_deadline_total"

let m_deadline_ok = deadline_outcome "ok"
let m_deadline_partial = deadline_outcome "partial"
let m_deadline_exceeded = deadline_outcome "deadline_exceeded"
let m_deadline_unmeetable = deadline_outcome "deadline_unmeetable"

let m_reaped =
  Metrics.counter
    ~help:"Connections closed for not completing a request within 4 read \
           windows"
    "iflow_serve_reaped_connections_total"

let m_bad =
  Metrics.counter ~help:"Undecodable or unanswerable requests"
    "iflow_serve_bad_requests_total"

let m_engine_errors =
  Metrics.counter ~help:"Queries failed in the engine (Chains_failed)"
    "iflow_serve_engine_errors_total"

let m_request_seconds =
  Metrics.histogram ~scale:1e-9
    ~help:"End-to-end request latency, admission to answer (the SLO \
           histogram)"
    "iflow_serve_request_seconds"

let m_queue_wait_seconds =
  Metrics.histogram ~scale:1e-9
    ~help:"Time admitted requests waited for an execution slot"
    "iflow_serve_queue_wait_seconds"

let m_queue_depth =
  Metrics.gauge ~help:"Requests waiting for an execution slot, when one was last taken"
    "iflow_serve_queue_depth"

let m_degraded_answers =
  Metrics.counter
    ~help:"Answers completed from surviving chains only (degraded)"
    "iflow_serve_degraded_answers_total"

let m_degraded =
  Metrics.gauge
    ~help:"1 while the engine serves a stale model because a hot-swap \
           failed, else 0"
    "iflow_serve_degraded"

let m_evidence =
  Metrics.counter ~help:"Evidence lines accepted via POST /evidence"
    "iflow_serve_evidence_lines_total"

let m_slow =
  Metrics.counter ~help:"Requests over the --slow-query-ms threshold"
    "iflow_serve_slow_queries_total"

(* Per-tenant, per-phase latency decomposition. A tenant's four
   histogram handles live together in an immutable assoc list swapped
   through an Atomic, so the per-request path is one lock-free lookup;
   the mutex only serialises the rare first sight of a tenant. Tenant
   cardinality is capped so a label-spraying client cannot grow the
   registry without bound — tenants past the cap account under
   "overflow" (and pay the slow path, which stays bounded too). *)
let max_phase_tenants = 64

type phase_handles = {
  ph_queue_wait : Metrics.histogram;
  ph_plan : Metrics.histogram;
  ph_sample : Metrics.histogram;
  ph_serialize : Metrics.histogram;
}

let phase_handles =
  let table : (string * phase_handles) list Atomic.t = Atomic.make [] in
  let mu = Mutex.create () in
  let mk tenant phase =
    Metrics.histogram ~scale:1e-9
      ~labels:[ ("tenant", tenant); ("phase", phase) ]
      ~help:
        "Request latency decomposed by phase (queue_wait / plan / sample / \
         serialize)"
      "iflow_serve_phase_seconds"
  in
  let register tenant =
    Mutex.protect mu (fun () ->
        let t = Atomic.get table in
        match List.assoc_opt tenant t with
        | Some h -> h
        | None -> (
          let tenant =
            if List.length t < max_phase_tenants then tenant else "overflow"
          in
          match List.assoc_opt tenant t with
          | Some h -> h
          | None ->
            let h =
              {
                ph_queue_wait = mk tenant "queue_wait";
                ph_plan = mk tenant "plan";
                ph_sample = mk tenant "sample";
                ph_serialize = mk tenant "serialize";
              }
            in
            Atomic.set table ((tenant, h) :: t);
            h))
  in
  fun tenant ->
    match List.assoc_opt tenant (Atomic.get table) with
    | Some h -> h
    | None -> register tenant

type config = {
  host : string;
  port : int;
  backlog : int;
  queue_capacity : int;
  workers : int;
  max_connections : int;
  quota : Quota.config option;
  ingest_capacity : int;
  max_line_bytes : int;
  max_body_bytes : int;
  flight_capacity : int;
  slow_query_ms : int option;
  default_deadline_ms : int option;
  max_deadline_ms : int option;
  read_timeout_ms : int option;
}

let default_config =
  {
    host = "127.0.0.1";
    port = 0;
    backlog = 128;
    queue_capacity = 64;
    workers = 2;
    max_connections = 1024;
    quota = None;
    ingest_capacity = 65_536;
    max_line_bytes = 1 lsl 20;
    max_body_bytes = 8 lsl 20;
    flight_capacity = 1024;
    slow_query_ms = None;
    default_deadline_ms = None;
    max_deadline_ms = None;
    read_timeout_ms = Some 30_000;
  }

type reply =
  | Answer of { result : Engine.result; version : int; degraded : bool }
  | Refused of {
      code : Wire.error_code;
      msg : string;
      retry_after_ms : int option;
    }

type state = Idle | Running | Stopped

type t = {
  config : config;
  engine : Engine.t;
  gate : (unit -> unit) option;
  slots : Slots.t;
  ingest : string Bqueue.t;
  quota : Quota.t option;
  published : int Atomic.t; (* the learner's last published version id *)
  (* lifecycle *)
  lock : Mutex.t;
  stopped_cv : Condition.t;
  mutable state : state;
  mutable listen_fd : Unix.file_descr option;
  mutable bound_port : int;
  mutable accept_thread : Thread.t option;
  (* open connections; an fd is closed only after leaving the table, so
     [stop] may shut down any fd it finds here *)
  conns : (int, Unix.file_descr) Hashtbl.t;
  conns_empty : Condition.t;
  mutable next_conn : int;
  t_start : int;
  s_active : int Atomic.t; (* open connections, read by admission control *)
  next_rid : int Atomic.t;
}

let validate_config c =
  let bad fmt = Printf.ksprintf invalid_arg ("Server: bad config: " ^^ fmt) in
  if c.queue_capacity < 1 then
    bad "queue_capacity must be >= 1 (got %d)" c.queue_capacity;
  if c.workers < 1 then bad "workers must be >= 1 (got %d)" c.workers;
  if c.max_connections < 1 then
    bad "max_connections must be >= 1 (got %d)" c.max_connections;
  if c.ingest_capacity < 1 then
    bad "ingest_capacity must be >= 1 (got %d)" c.ingest_capacity;
  if c.max_line_bytes < 64 then
    bad "max_line_bytes must be >= 64 (got %d)" c.max_line_bytes;
  if c.backlog < 1 then bad "backlog must be >= 1 (got %d)" c.backlog;
  if c.flight_capacity < 0 then
    bad "flight_capacity must be >= 0 (got %d)" c.flight_capacity;
  (* every ms value becomes nanoseconds added to a clock reading *)
  let millis name v =
    match v with
    | Some ms when ms < 1 || ms > Cancel.max_budget_ms ->
      bad "%s must be in [1, %d] (got %d)" name Cancel.max_budget_ms ms
    | _ -> ()
  in
  millis "slow_query_ms" c.slow_query_ms;
  millis "default_deadline_ms" c.default_deadline_ms;
  millis "max_deadline_ms" c.max_deadline_ms;
  millis "read_timeout_ms" c.read_timeout_ms;
  match (c.default_deadline_ms, c.max_deadline_ms) with
  | Some d, Some mx when d > mx ->
    bad "default_deadline_ms %d exceeds max_deadline_ms %d" d mx
  | _ -> ()

let create ?(config = default_config) ?gate ~engine () =
  validate_config config;
  {
    config;
    engine;
    gate;
    slots = Slots.create ~slots:config.workers ~capacity:config.queue_capacity;
    ingest = Bqueue.create config.ingest_capacity;
    quota = Option.map Quota.create config.quota;
    published = Atomic.make (fst (Engine.version engine));
    lock = Mutex.create ();
    stopped_cv = Condition.create ();
    state = Idle;
    listen_fd = None;
    bound_port = 0;
    accept_thread = None;
    conns = Hashtbl.create 64;
    conns_empty = Condition.create ();
    next_conn = 0;
    t_start = Clock.now_ns ();
    s_active = Atomic.make 0;
    next_rid = Atomic.make 1;
  }

(* ----- learner integration ----- *)

(* the engine carries its own version tag; the server only remembers
   how far the learner got, and is degraded while the engine lags it *)
let lags t version = version < Atomic.get t.published
let current_version t = fst (Engine.version t.engine)
let degraded t = lags t (current_version t)

let on_publish t (v : Snapshot.version) =
  Atomic.set t.published v.Snapshot.id;
  Metrics.set m_degraded (if degraded t then 1.0 else 0.0)

let note_degraded _t ~stage e =
  Log.warn ~component:"serve" "degraded (%s): %s" stage (Printexc.to_string e)

(* ----- ingest bridge ----- *)

(* A full ingest queue is usually transient — the learner runner
   drains it in batches — so the enqueue rides it out with a few
   quick re-attempts inside a ~5 ms budget. A persistently full (or
   closed) queue still answers [over_capacity] instead of blocking
   the connection thread without bound. *)
let ingest_policy =
  {
    Retry.max_attempts = 4;
    base_delay = 0.0005;
    multiplier = 2.0;
    jitter = 0.0;
    max_delay = 0.002;
    budget = Some 0.005;
  }

exception Ingest_full

let ingest_line t line =
  let push () = if not (Bqueue.try_push t.ingest line) then raise Ingest_full in
  let ok =
    match
      Retry.with_policy ingest_policy
        ~retryable:(function
          | Ingest_full -> not (Bqueue.is_closed t.ingest)
          | _ -> false)
        push
    with
    | () -> true
    | exception Ingest_full -> false
  in
  if ok then Metrics.inc m_evidence;
  ok

let ingest_source t () = Bqueue.pop t.ingest
let ingest_pending t = Bqueue.length t.ingest

(* ----- the admission pipeline ----- *)

let ns_to_ms_ceil ns = (ns + 999_999) / 1_000_000

let mint_rid t =
  Printf.sprintf "r%d-%d" (Unix.getpid ()) (Atomic.fetch_and_add t.next_rid 1)

(* The unmeetable predictor needs this many executed requests folded
   into the load hint before it trusts the floor estimate *)
let unmeetable_min_samples = 32

let refuse ?retry_after_ms code msg = Refused { code; msg; retry_after_ms }

(* Run one decoded query on the calling connection thread. Returns the
   reply plus, when the request took a slot, its queue wait and the
   engine's phase record; [None] for refusals at admission, which never
   waited anywhere. *)
let execute t ~tenant ~rid ~deadline_budget_ns q =
  Metrics.inc m_requests;
  let t0 = Clock.now_ns () in
  let has_deadline = deadline_budget_ns > 0 in
  let quota_verdict =
    match t.quota with
    | None -> Quota.Granted
    | Some quota -> Quota.admit quota ~now_ns:t0 ~tenant
  in
  let hint = Flight.load_hint () in
  let floor_ns = hint.Flight.h_queue_wait_ns + hint.Flight.h_serialize_ns in
  match quota_verdict with
  | Quota.Denied { retry_after_ns } ->
    Metrics.inc m_shed_quota;
    ( refuse
        ~retry_after_ms:(max 1 (ns_to_ms_ceil retry_after_ns))
        Wire.Quota_exceeded
        (Printf.sprintf "tenant %S over quota" tenant),
      None )
  (* deadline-aware admission: when even the floor recent requests paid
     (queue wait + serialization EWMA) exceeds the budget, refusing now
     is cheaper for everyone than waiting for a slot only to expire *)
  | Quota.Granted
    when has_deadline
         && hint.Flight.h_count >= unmeetable_min_samples
         && floor_ns > deadline_budget_ns ->
    Metrics.inc m_shed_deadline;
    ( refuse Wire.Deadline_unmeetable
        (Printf.sprintf
           "deadline of %d ms is below the current overhead floor of ~%d ms \
            (recent queue wait + serialization)"
           (ns_to_ms_ceil deadline_budget_ns) (ns_to_ms_ceil floor_ns)),
      None )
  | Quota.Granted -> (
    let cancel =
      if has_deadline then Cancel.create ~deadline_ns:(t0 + deadline_budget_ns) ()
      else Cancel.none
    in
    if Trace.enabled () then
      Trace.flow_start "request" ~id:(Trace.flow_id rid)
        ~args:[ ("rid", Trace.Str rid) ];
    match Slots.enter t.slots with
    | Slots.Closed -> (refuse Wire.Shutting_down "server is shutting down", None)
    | Slots.Full ->
      Metrics.inc m_shed_capacity;
      ( refuse Wire.Over_capacity
          (Printf.sprintf "every slot busy, %d waiting"
             t.config.queue_capacity),
        None )
    | Slots.Run ->
      (* a request holding its slot when [stop] lands finishes normally *)
      Fun.protect
        ~finally:(fun () -> Slots.leave t.slots)
        (fun () ->
          Option.iter (fun g -> g ()) t.gate;
          let queue_wait_ns =
            Trace.phase ~hist:m_queue_wait_seconds "serve.queue_wait" ~t0
          in
          Metrics.set m_queue_depth (float_of_int (Slots.waiting t.slots));
          let ph = Engine.phases () in
          let reply =
            if Cancel.cancelled cancel then
              (* the deadline passed while the request waited: shed it
                 here, before burn-in, so expired requests cost no
                 sampler CPU *)
              refuse Wire.Deadline_exceeded
                (Printf.sprintf "deadline of %d ms expired after %d ms in queue"
                   (ns_to_ms_ceil deadline_budget_ns)
                   (ns_to_ms_ceil queue_wait_ns))
            else
              match
                Engine.query ~rid ~phases:ph ~cancel ~on_deadline:`Partial
                  t.engine q
              with
              | r ->
                Metrics.inc m_answers;
                (* exact-planned answers have no chains to lose *)
                let degraded =
                  match r.Engine.plan with
                  | Engine.Plan_exact _ -> false
                  | Engine.Plan_mh _ ->
                    r.Engine.chains_used < (Engine.config t.engine).Engine.chains
                in
                if degraded then Metrics.inc m_degraded_answers;
                Answer { result = r; version = ph.Engine.version; degraded }
              | exception Engine.Deadline_exceeded { reason; rounds; _ } ->
                refuse Wire.Deadline_exceeded
                  (Printf.sprintf "query %s: %s after %d round%s" (Query.key q)
                     reason rounds
                     (if rounds = 1 then "" else "s"))
              | exception Engine.Chains_failed _ ->
                Metrics.inc m_engine_errors;
                refuse Wire.Chains_failed
                  (Printf.sprintf "query %s: too many chains failed"
                     (Query.key q))
              | exception (Invalid_argument msg | Failure msg) ->
                Metrics.inc m_bad;
                refuse Wire.Bad_query msg
          in
          Metrics.observe m_request_seconds (Clock.now_ns () - t0);
          (reply, Some (queue_wait_ns, ph))))

let reply_line ?id ~rid = function
  | Answer { result; version; degraded } ->
    Wire.result_line ?id ~request_id:rid ~version ~degraded result
  | Refused { code; msg; retry_after_ms } ->
    Wire.error_line ?id ~request_id:rid ?retry_after_ms code msg

(* How a reply settles a deadline-carrying request: the outcome it
   counts under, and whether the deadline cut it short (a partial
   answer or a typed deadline_exceeded) *)
let deadline_settlement = function
  | Answer { result; _ } when result.Engine.partial ->
    (Some m_deadline_partial, true)
  | Answer _ -> (Some m_deadline_ok, false)
  | Refused { code = Wire.Deadline_exceeded; _ } ->
    (Some m_deadline_exceeded, true)
  | Refused { code = Wire.Deadline_unmeetable; _ } ->
    (Some m_deadline_unmeetable, false)
  | Refused _ -> (None, false)

(* One flight record per answered-or-refused line. The record is built
   on the connection thread after serialisation (the last phase it
   measures), submitted to the ring, and reused verbatim for the
   slow-query log line, so the log and /debug/requests can never
   disagree about a request. The per-tenant phase histograms are
   observed here too, from the same numbers. *)
let finish_request t ~rid ~tenant ~kind ~reply ~ran ~deadline_budget_ns
    ~serialize_ns ~total_ns =
  let h = phase_handles tenant in
  (* admission refusals never queued, planned or sampled *)
  (match ran with
  | Some (queue_wait_ns, ph) ->
    Metrics.observe h.ph_queue_wait queue_wait_ns;
    Metrics.observe h.ph_plan ph.Engine.plan_ns;
    Metrics.observe h.ph_sample ph.Engine.sample_ns
  | None -> ());
  Metrics.observe h.ph_serialize serialize_ns;
  if Trace.enabled () then
    Trace.flow_finish "request" ~id:(Trace.flow_id rid);
  let outcome, cut_short = deadline_settlement reply in
  (* every deadline-carrying request settles into exactly one outcome *)
  if deadline_budget_ns > 0 then Option.iter Metrics.inc outcome;
  let slow =
    match t.config.slow_query_ms with
    | Some ms -> total_ns >= ms * 1_000_000
    | None -> false
  in
  if Flight.enabled () || slow then begin
    let queue_wait_ns, plan_ns, sample_ns, rounds =
      match ran with
      | Some (queue_wait_ns, ph) ->
        (queue_wait_ns, ph.Engine.plan_ns, ph.Engine.sample_ns,
         ph.Engine.rounds)
      | None -> (0, 0, 0, 0)
    in
    let r =
      {
        Flight.seq = -1;
        id = rid;
        tenant;
        kind;
        path = Flight.Err;
        fallback = "";
        error = "";
        version = -1;
        digest = "";
        queue_wait_ns;
        plan_ns;
        sample_ns;
        serialize_ns;
        rounds;
        samples = 0;
        rhat = Float.nan;
        mcse = Float.nan;
        deadline_ns = deadline_budget_ns;
        cancelled = cut_short;
        ts_ns = 0;
      }
    in
    (match reply with
    | Answer { result = res; version; degraded = _ } ->
      r.path <-
        (if res.Engine.cached then Flight.Cache
         else
           match res.Engine.plan with
           | Engine.Plan_exact _ -> Flight.Exact
           | Engine.Plan_mh _ -> Flight.Mh);
      (match res.Engine.plan with
      | Engine.Plan_mh { fallback = Some f } -> r.fallback <- f
      | _ -> ());
      r.version <- version;
      r.digest <- res.Engine.model_digest;
      r.samples <- res.Engine.total_samples;
      r.rhat <- res.Engine.rhat;
      r.mcse <- res.Engine.mcse
    | Refused { code; _ } -> r.error <- Wire.code_string code);
    Flight.submit r;
    if slow then begin
      Metrics.inc m_slow;
      Log.warn ~component:"serve" ~rid "slow query (%d ms >= %d ms): %s"
        (ns_to_ms_ceil total_ns)
        (Option.value t.config.slow_query_ms ~default:0)
        (Flight.to_json r)
    end
  end

let ( let* ) = Result.bind

(* Decode one request line: the query object itself, plus the serving
   extensions ("id" echoed back, "tenant" for quota accounting,
   "request_id" client-supplied or minted here — [?rid] carries the
   HTTP dialect's X-Request-Id assignment, [?deadline_default] its
   X-Deadline-Ms header, which a per-line "deadline_ms" member
   overrides). *)
let handle_query_line t ~tenant_default ?rid ?deadline_default ~lineno line =
  if String.trim line = "" then None
  else begin
    let t_admit = Clock.now_ns () in
    let parsed = Jsonl.parse line in
    let member name =
      Result.fold parsed ~ok:(Jsonl.member name) ~error:(fun _ -> None)
    in
    let rid =
      match (member "request_id", rid) with
      | Some (Jsonl.Str s), _ when s <> "" -> s
      | _, Some r -> r
      | _, None -> mint_rid t
    in
    let id =
      match member "id" with
      | Some (Jsonl.Str s) -> Some s
      | Some v -> Option.map string_of_int (Jsonl.to_int v)
      | None -> None
    in
    let tenant =
      match member "tenant" with Some (Jsonl.Str s) -> s | _ -> tenant_default
    in
    let request =
      let* json = parsed in
      let* dl_member =
        match Jsonl.member "deadline_ms" json with
        | Some (Jsonl.Num f)
          when Float.is_integer f && f >= 1.0
               && f <= float_of_int Cancel.max_budget_ms ->
          Ok (Some (int_of_float f))
        | Some _ ->
          Error
            (Printf.sprintf
               "deadline_ms must be an integer from 1 to %d milliseconds"
               Cancel.max_budget_ms)
        | None -> Ok None
      in
      let* q = Query.of_json json in
      Ok (q, dl_member)
    in
    let kind, reply, ran, deadline_budget_ns =
      match request with
      | Error msg ->
        Metrics.inc m_bad;
        ("", refuse Wire.Bad_request (Printf.sprintf "line %d: %s" lineno msg),
         None, 0)
      | Ok (q, dl_member) ->
        (* line member > connection header > server default; the
           server-wide cap clamps whatever won *)
        let budget_ms =
          match (dl_member, deadline_default) with
          | Some v, _ -> Some v
          | None, Some v -> Some v
          | None, None -> t.config.default_deadline_ms
        in
        let budget_ms =
          match (budget_ms, t.config.max_deadline_ms) with
          | Some v, Some mx -> Some (min v mx)
          | v, _ -> v
        in
        let deadline_budget_ns =
          match budget_ms with Some ms -> ms * 1_000_000 | None -> 0
        in
        let reply, ran = execute t ~tenant ~rid ~deadline_budget_ns q in
        (Query.key q, reply, ran, deadline_budget_ns)
    in
    let t_ser = Clock.now_ns () in
    let resp = reply_line ?id ~rid reply in
    let serialize_ns = Trace.phase "serve.serialize" ~t0:t_ser in
    finish_request t ~rid ~tenant ~kind ~reply ~ran ~deadline_budget_ns
      ~serialize_ns ~total_ns:(t_ser + serialize_ns - t_admit);
    Some resp
  end

(* ----- health ----- *)

type stats = {
  connections : int;
  active : int;
  requests : int;
  answered : int;
  shed_capacity : int;
  shed_quota : int;
  shed_deadline : int;
  bad_requests : int;
  engine_errors : int;
  evidence_lines : int;
}

let stats t =
  let v = Metrics.counter_value in
  {
    connections = v m_connections;
    active = Atomic.get t.s_active;
    requests = v m_requests;
    answered = v m_answers;
    shed_capacity = v m_shed_capacity;
    shed_quota = v m_shed_quota;
    shed_deadline = v m_shed_deadline;
    bad_requests = v m_bad;
    engine_errors = v m_engine_errors;
    evidence_lines = v m_evidence;
  }

and queue_depth t = Slots.waiting t.slots

(* the /healthz body and whether it reports degraded, from one read of
   the engine's (version, digest) pair *)
let health t =
  let s = stats t in
  let version, digest = Engine.version t.engine in
  let degraded = lags t version in
  ( degraded,
    Printf.sprintf
      "{\"status\":%s,\"version\":%d,\"digest\":%s,\"uptime_s\":%.3f,\
       \"queue_depth\":%d,\"queue_capacity\":%d,\"active_connections\":%d,\
       \"requests\":%d,\"answered\":%d,\"shed_capacity\":%d,\"shed_quota\":%d,\
       \"shed_deadline\":%d,\"bad_requests\":%d,\"engine_errors\":%d,\
       \"evidence_pending\":%d,\"workers\":%d}"
      (Wire.escape (if degraded then "degraded" else "ok"))
      version (Wire.escape digest)
      (Clock.seconds_of_ns (Clock.now_ns () - t.t_start))
      (queue_depth t) t.config.queue_capacity s.active s.requests s.answered
      s.shed_capacity s.shed_quota s.shed_deadline s.bad_requests
      s.engine_errors (ingest_pending t) t.config.workers )

let health_json t = snd (health t)

(* ----- connection handling ----- *)

(* the typed reply to a read the guard cut short: [silent] for a window
   of silence, or the dribbler's missed request deadline *)
let timeout_reply t r ~silent =
  let msg =
    if Sockio.expired r then
      Printf.sprintf "request not completed within %d ms"
        (Sockio.request_windows
        * Option.value t.config.read_timeout_ms ~default:0)
    else silent
  in
  Wire.error_line Wire.Bad_request msg ^ "\n"

(* each line is one request: [end_request] before answering it, so the
   guard's request deadline never runs while an answer is computed *)
let handle_jsonl t fd r first_line =
  let buf = Buffer.create 256 in
  let respond line lineno =
    Sockio.end_request r;
    match handle_query_line t ~tenant_default:"anonymous" ~lineno line with
    | None -> ()
    | Some resp ->
      Buffer.clear buf;
      Buffer.add_string buf resp;
      Buffer.add_char buf '\n';
      Sockio.write_all fd (Buffer.contents buf)
  in
  respond first_line 1;
  let rec go lineno =
    match Sockio.read_line r with
    | Sockio.Eof -> ()
    | Sockio.Timeout ->
      Sockio.write_all fd
        (timeout_reply t r
           ~silent:
             (Printf.sprintf "read timed out after %d ms with no complete line"
                (Option.value t.config.read_timeout_ms ~default:0)))
    | Sockio.Too_long ->
      Sockio.write_all fd
        (Wire.error_line Wire.Bad_request
           (Printf.sprintf "line %d exceeds %d bytes" lineno
              t.config.max_line_bytes)
        ^ "\n")
    | Sockio.Line line ->
      respond line lineno;
      go (lineno + 1)
  in
  go 2

(* one request per connection ([Connection: close]): the guard's
   deadline spans the request line, the headers and the body *)
let handle_http t fd r first_line =
  let send ?headers ?content_type ~status body =
    Sockio.write_all fd (Http.response ?headers ?content_type ~status body)
  in
  match
    Http.read_request ~max_body_bytes:t.config.max_body_bytes r
      ~first_line
  with
  | Http.Malformed msg ->
    send ~status:400 (Wire.error_line Wire.Bad_request msg ^ "\n")
  | Http.Overflow msg ->
    send ~status:413 (Wire.error_line Wire.Bad_request msg ^ "\n")
  | Http.Request req -> (
    let path, query = Http.split_target req.Http.path in
    match (req.Http.meth, path) with
    | "GET", "/healthz" ->
      let degraded, body = health t in
      send ~status:(if degraded then 503 else 200) (body ^ "\n")
    | "GET", "/metrics" ->
      send ~status:200
        ~content_type:"text/plain; version=0.0.4"
        (Prometheus.to_string Metrics.default)
    | "GET", "/debug/requests" ->
      let n =
        match Http.query_param query "n" with
        | Some s -> (
          match Http.decimal s with
          | Some n when n > 0 -> n
          | _ -> 64)
        | None -> 64
      in
      let body =
        match Flight.recent n with
        | [] -> "[]\n"
        | recs ->
          "[" ^ String.concat ",\n " (List.map Flight.to_json recs) ^ "]\n"
      in
      send ~status:200 body
    | "POST", "/query" -> (
      let tenant_default =
        match Http.header req "x-tenant" with
        | Some tn when tn <> "" -> tn
        | _ -> "anonymous"
      in
      (* X-Deadline-Ms sets the whole body's deadline; a per-line
         "deadline_ms" member overrides it line by line *)
      let deadline_hdr =
        match Http.header req "x-deadline-ms" with
        | Some s -> (
          match Http.decimal (String.trim s) with
          | Some v when v >= 1 && v <= Cancel.max_budget_ms -> Ok (Some v)
          | _ -> Error s)
        | None -> Ok None
      in
      match deadline_hdr with
      | Error s ->
        Metrics.inc m_bad;
        send ~status:400
          (Wire.error_line Wire.Bad_request
             (Printf.sprintf
                "X-Deadline-Ms must be an integer from 1 to %d, got %S"
                Cancel.max_budget_ms s)
          ^ "\n")
      | Ok deadline_default ->
        let lines = String.split_on_char '\n' req.Http.body in
        (* a client-supplied X-Request-Id names a single-line body
           verbatim; batched lines get a -<lineno> suffix so every
           answer (and flight record) still has its own id *)
        let client_rid =
          match Http.header req "x-request-id" with
          | Some r when r <> "" -> Some r
          | _ -> None
        in
        let single =
          List.length (List.filter (fun l -> String.trim l <> "") lines) = 1
        in
        let rid_for i =
          Option.map
            (fun base ->
              if single then base else Printf.sprintf "%s-%d" base (i + 1))
            client_rid
        in
        let replies =
          List.filter_map
            (fun (i, line) ->
              handle_query_line t ~tenant_default ?rid:(rid_for i)
                ?deadline_default ~lineno:(i + 1) line)
            (List.mapi (fun i line -> (i, line)) lines)
        in
        let headers =
          match client_rid with
          | Some r -> [ ("X-Request-Id", r) ]
          | None -> []
        in
        send ~headers ~status:200 (String.concat "\n" replies ^ "\n"))
    | "POST", "/evidence" ->
      let lines =
        List.filter
          (fun l -> String.trim l <> "")
          (String.split_on_char '\n' req.Http.body)
      in
      let accepted = List.fold_left
          (fun n line -> if ingest_line t line then n + 1 else n)
          0 lines
      in
      let total = List.length lines in
      if accepted = total then
        send ~status:202 (Printf.sprintf "{\"accepted\":%d}\n" accepted)
      else
        send ~status:429
          (Printf.sprintf
             "{\"accepted\":%d,\"error\":\"over_capacity\",\"message\":\
              \"evidence queue full after %d of %d lines\"}\n"
             accepted accepted total)
    | meth, path ->
      send ~status:404
        (Wire.error_line Wire.Bad_request
           (Printf.sprintf "no route %s %s" meth path)
        ^ "\n"))

let handle_conn t conn_id fd =
  let r = Sockio.reader ~max_line_bytes:t.config.max_line_bytes fd in
  Option.iter (fun ms -> Sockio.guard r ~window_ms:ms) t.config.read_timeout_ms;
  Fun.protect
    ~finally:(fun () ->
      if Sockio.expired r then Metrics.inc m_reaped;
      Atomic.decr t.s_active;
      Metrics.set m_active (float_of_int (Atomic.get t.s_active));
      (* out of the table before the close, under the lock, so [stop]
         never shuts down an fd number already reused *)
      Mutex.protect t.lock (fun () ->
          Hashtbl.remove t.conns conn_id;
          (try Unix.close fd with Unix.Unix_error _ -> ());
          if Hashtbl.length t.conns = 0 then Condition.broadcast t.conns_empty))
    (fun () ->
      try
        match Sockio.read_line r with
        | Sockio.Eof -> ()
        | Sockio.Timeout ->
          Sockio.write_all fd
            (timeout_reply t r
               ~silent:"read timed out before a complete first line")
        | Sockio.Too_long ->
          Sockio.write_all fd
            (Wire.error_line Wire.Bad_request "first line too long" ^ "\n")
        | Sockio.Line first ->
          if Http.is_http_verb first then handle_http t fd r first
          else handle_jsonl t fd r first
      with
      | Unix.Unix_error _ -> (* peer went away; nothing to salvage *) ()
      | Sys_error _ -> ())

let accept_loop t listen_fd =
  let stopping () = Mutex.protect t.lock (fun () -> t.state <> Running) in
  let rec go () =
    match Unix.accept listen_fd with
    | fd, _addr ->
      Metrics.inc m_connections;
      (* an answer must not wait for the ACK of the previous one *)
      (try Unix.setsockopt fd Unix.TCP_NODELAY true
       with Unix.Unix_error _ -> ());
      if Atomic.get t.s_active >= t.config.max_connections then begin
        Metrics.inc m_shed_connections;
        (try
           Sockio.write_all fd
             (Wire.error_line Wire.Over_capacity "connection limit reached"
             ^ "\n")
         with Unix.Unix_error _ -> ());
        (try Unix.close fd with Unix.Unix_error _ -> ())
      end
      else begin
        Atomic.incr t.s_active;
        Metrics.set m_active (float_of_int (Atomic.get t.s_active));
        let conn_id =
          Mutex.protect t.lock (fun () ->
              let id = t.next_conn in
              t.next_conn <- id + 1;
              Hashtbl.replace t.conns id fd;
              id)
        in
        ignore (Thread.create (fun () -> handle_conn t conn_id fd) ())
      end;
      go ()
    | exception Unix.Unix_error ((Unix.EINTR | Unix.ECONNABORTED), _, _) ->
      go ()
    | exception Unix.Unix_error _ when stopping () -> ()
    | exception Unix.Unix_error (e, _, _) ->
      Log.err ~component:"serve" "accept: %s" (Unix.error_message e)
  in
  go ()

(* ----- lifecycle ----- *)

let port t = Mutex.protect t.lock (fun () -> t.bound_port)

let start t =
  let listen_fd =
    Mutex.protect t.lock (fun () ->
        if t.state <> Idle then invalid_arg "Server.start: already started";
        (* a peer closing mid-write must be an EPIPE error, not a
           process-killing signal *)
        (try Sys.set_signal Sys.sigpipe Sys.Signal_ignore
         with Invalid_argument _ -> ());
        let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
        (try
           Unix.setsockopt fd Unix.SO_REUSEADDR true;
           let addr =
             Unix.ADDR_INET (Unix.inet_addr_of_string t.config.host, t.config.port)
           in
           Unix.bind fd addr;
           Unix.listen fd t.config.backlog
         with e ->
           (try Unix.close fd with Unix.Unix_error _ -> ());
           raise e);
        (match Unix.getsockname fd with
        | Unix.ADDR_INET (_, p) -> t.bound_port <- p
        | Unix.ADDR_UNIX _ -> ());
        t.listen_fd <- Some fd;
        t.state <- Running;
        fd)
  in
  (* the ring is process-global: capacity 0 must also turn off a ring an
     earlier server in this process configured *)
  if t.config.flight_capacity > 0 then
    Flight.configure ~capacity:t.config.flight_capacity ()
  else Flight.disable ();
  let acceptor = Thread.create (fun () -> accept_loop t listen_fd) () in
  Mutex.protect t.lock (fun () -> t.accept_thread <- Some acceptor);
  Log.info ~component:"serve" "listening on %s:%d (%d workers, queue %d)"
    t.config.host (port t) t.config.workers t.config.queue_capacity

let stop t =
  let to_stop =
    Mutex.protect t.lock (fun () ->
        match t.state with
        | Running ->
          t.state <- Stopped;
          true
        | Idle ->
          t.state <- Stopped;
          Condition.broadcast t.stopped_cv;
          false
        | Stopped -> false)
  in
  if to_stop then begin
    (* 1. stop accepting — shutdown() before close(): closing a
       listening fd does not wake a thread parked in accept(2), but
       shutting it down makes accept fail immediately *)
    (match t.listen_fd with
    | Some fd ->
      (try Unix.shutdown fd Unix.SHUTDOWN_ALL with Unix.Unix_error _ -> ());
      (try Unix.close fd with Unix.Unix_error _ -> ())
    | None -> ());
    (match t.accept_thread with Some th -> Thread.join th | None -> ());
    (* 2. refuse new work: closing the gate bounds the drain — every
       waiter and every later arrival answers [shutting_down] without
       sampling. A request already holding its slot finishes
       normally. *)
    Slots.close t.slots;
    (* 3. end every connection's input: threads parked in read_line
       see end of stream, while one still running or writing an
       answer finishes it first. Then wait for every one to close its
       fd; the acceptor is gone, so the table only shrinks. *)
    Mutex.protect t.lock (fun () ->
        Hashtbl.iter
          (fun _ fd ->
            try Unix.shutdown fd Unix.SHUTDOWN_RECEIVE
            with Unix.Unix_error _ -> ())
          t.conns;
        while Hashtbl.length t.conns > 0 do
          Condition.wait t.conns_empty t.lock
        done);
    (* 4. end the evidence stream so a Runner on [ingest_source] exits *)
    Bqueue.close t.ingest;
    Mutex.protect t.lock (fun () -> Condition.broadcast t.stopped_cv)
  end

let wait t =
  Mutex.protect t.lock (fun () ->
      while t.state <> Stopped do
        Condition.wait t.stopped_cv t.lock
      done)
