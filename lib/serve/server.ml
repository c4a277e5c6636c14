module Engine = Iflow_engine.Engine
module Query = Iflow_engine.Query
module Jsonl = Iflow_engine.Jsonl
module Metrics = Iflow_obs.Metrics
module Prometheus = Iflow_obs.Prometheus
module Log = Iflow_obs.Log
module Clock = Iflow_obs.Clock
module Trace = Iflow_obs.Trace
module Flight = Iflow_obs.Flight
module Runner = Iflow_stream.Runner
module Cancel = Iflow_mcmc.Cancel

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
  Metrics.counter ~help:"Evidence lines applied via POST /evidence"
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
  queue_capacity : int;
  workers : int;
  max_connections : int;
  quota : Quota.config option;
  flight_capacity : int;
  slow_query_ms : int option;
  default_deadline_ms : int option;
  max_deadline_ms : int option;
  read_timeout_ms : int option;
}

(* the fixed listen(2) backlog; the line cap of both dialects and the
   HTTP body cap are [Sockio.reader]'s and [Http.read_request]'s *)
let backlog = 128

let default_config =
  {
    host = "127.0.0.1";
    port = 0;
    queue_capacity = 64;
    workers = 2;
    max_connections = 1024;
    quota = None;
    flight_capacity = 1024;
    slow_query_ms = None;
    default_deadline_ms = None;
    max_deadline_ms = None;
    read_timeout_ms = Some 30_000;
  }

type reply =
  | Answer of { result : Engine.result; degraded : bool }
  | Refused of {
      code : Wire.error_code;
      msg : string;
      retry_after_ms : int option;
    }

(* One decoded query line from admission to its flight record *)
type request = {
  rid : string;
  tenant : string;
  kind : string; (* Query.key; "" when the line did not decode *)
  budget_ms : int; (* 0: no deadline *)
  t_admit : int; (* before the line was parsed *)
  mutable queue_wait_ns : int; (* -1 until the request holds a slot *)
  ph : Engine.phases;
}

(* [Stopping] from the start of [stop] until every connection closed *)
type state = Idle | Running | Stopping | Stopped

type t = {
  config : config;
  engine : Engine.t;
  gate : (unit -> unit) option;
  slots : Slots.t;
  learner : Runner.t option;
  learner_lock : Mutex.t; (* serialises [Runner.feed] across connections *)
  quota : Quota.t option;
  published : int Atomic.t; (* the learner's last published version id *)
  (* lifecycle *)
  lock : Mutex.t;
  stopped_cv : Condition.t;
  mutable state : state;
  mutable listen_fd : Unix.file_descr option;
  mutable bound_port : int;
  mutable accept_thread : Thread.t option;
  (* serving domain k > 0 and its mailbox are [serving.(k - 1)]; domain
     0 is the acceptor's own *)
  mutable serving : ((int * Unix.file_descr) Bqueue.t * unit Domain.t) array;
  (* open connections; an fd is closed only after leaving the table, so
     [stop] may shut down any fd it finds here *)
  conns : (int, Unix.file_descr) Hashtbl.t;
  load : int array; (* open connections per serving domain *)
  conns_empty : Condition.t;
  mutable next_conn : int;
  t_start : int;
  next_rid : int Atomic.t;
  (* the overhead floor deadline-aware admission reads: an EWMA
     (alpha 1/8) of queue wait and serialize time over the requests
     that took a slot, and how many it has folded in. Racy
     read-modify-write: a lost update nudges the EWMA by one sample. *)
  floor_queue_wait_ns : int Atomic.t;
  floor_serialize_ns : int Atomic.t;
  floor_count : int Atomic.t;
}

let validate_config c =
  let bad fmt = Printf.ksprintf invalid_arg ("Server: bad config: " ^^ fmt) in
  if c.queue_capacity < 1 then
    bad "queue_capacity must be >= 1 (got %d)" c.queue_capacity;
  if c.workers < 1 then bad "workers must be >= 1 (got %d)" c.workers;
  if c.max_connections < 1 then
    bad "max_connections must be >= 1 (got %d)" c.max_connections;
  if c.flight_capacity < 0 then
    bad "flight_capacity must be >= 0 (got %d)" c.flight_capacity;
  (* every ms value becomes nanoseconds added to a clock reading *)
  let millis name v =
    if v <> None then
      Result.iter_error (bad "%s") (Cancel.check_ms name v)
  in
  millis "slow_query_ms" c.slow_query_ms;
  millis "default_deadline_ms" c.default_deadline_ms;
  millis "max_deadline_ms" c.max_deadline_ms;
  millis "read_timeout_ms" c.read_timeout_ms;
  match (c.default_deadline_ms, c.max_deadline_ms) with
  | Some d, Some mx when d > mx ->
    bad "default_deadline_ms %d exceeds max_deadline_ms %d" d mx
  | _ -> ()

let create ?(config = default_config) ?gate ?learner ~engine () =
  validate_config config;
  {
    config;
    engine;
    gate;
    slots = Slots.create ~slots:config.workers ~capacity:config.queue_capacity;
    learner;
    learner_lock = Mutex.create ();
    quota = Option.map Quota.create config.quota;
    published = Atomic.make (fst (Engine.version engine));
    lock = Mutex.create ();
    stopped_cv = Condition.create ();
    state = Idle;
    listen_fd = None;
    bound_port = 0;
    accept_thread = None;
    serving = [||];
    conns = Hashtbl.create 64;
    load =
      Array.make
        (Option.value (Engine.config engine).Engine.domains
           ~default:(Domain.recommended_domain_count ()))
        0;
    conns_empty = Condition.create ();
    next_conn = 0;
    t_start = Clock.now_ns ();
    next_rid = Atomic.make 1;
    floor_queue_wait_ns = Atomic.make 0;
    floor_serialize_ns = Atomic.make 0;
    floor_count = Atomic.make 0;
  }

(* ----- learner integration ----- *)

(* the engine carries its own version tag; the server only remembers
   how far the learner got, and is degraded while the engine lags it *)
let lags t version = version < Atomic.get t.published
let current_version t = fst (Engine.version t.engine)
let degraded t = lags t (current_version t)

(* Apply one POST /evidence body's lines through the learner, in
   order, on the calling connection thread. A line that completes a
   batch publishes and swaps before the next is fed, so the reply
   leaves after the new version serves. *)
let ingest t lines =
  match t.learner with
  | None -> None
  | Some l ->
    Mutex.protect t.learner_lock (fun () ->
        List.iter (Runner.feed l) lines;
        (* read after the swap, so [degraded] never sees a publish
           whose swap is still running *)
        Atomic.set t.published (Runner.published l));
    Metrics.add m_evidence (List.length lines);
    Metrics.set m_degraded (if degraded t then 1.0 else 0.0);
    Some (List.length lines)

(* ----- the admission pipeline ----- *)

let ns_to_ms_ceil ns = (ns + 999_999) / 1_000_000

let mint_rid t =
  Printf.sprintf "r%d-%d" (Unix.getpid ()) (Atomic.fetch_and_add t.next_rid 1)

(* The unmeetable predictor needs this many executed requests folded
   into the floor before it trusts the estimate *)
let unmeetable_min_samples = 32

let ewma cell x =
  let old = Atomic.get cell in
  Atomic.set cell (if old = 0 then x else old + ((x - old) asr 3))

(* every admitted request pays at least its queue wait plus
   serialization, whatever path answers it *)
let observe_floor t ~queue_wait_ns ~serialize_ns =
  ewma t.floor_queue_wait_ns queue_wait_ns;
  ewma t.floor_serialize_ns serialize_ns;
  Atomic.incr t.floor_count

let refuse ?retry_after_ms code msg = Refused { code; msg; retry_after_ms }

(* Run one decoded query on the calling connection thread. A request
   that takes a slot records its queue wait in [req], and the engine's
   phases in [req.ph]; refusals at admission never waited anywhere. *)
let execute t req q =
  Metrics.inc m_requests;
  let t0 = Clock.now_ns () in
  let quota_verdict =
    match t.quota with
    | None -> Quota.Granted
    | Some quota -> Quota.admit quota ~now_ns:t0 ~tenant:req.tenant
  in
  let floor_ns =
    Atomic.get t.floor_queue_wait_ns + Atomic.get t.floor_serialize_ns
  in
  match quota_verdict with
  | Quota.Denied { retry_after_ns } ->
    Metrics.inc m_shed_quota;
    refuse
      ~retry_after_ms:(max 1 (ns_to_ms_ceil retry_after_ns))
      Wire.Quota_exceeded
      (Printf.sprintf "tenant %S over quota" req.tenant)
  (* deadline-aware admission: when even the floor recent requests paid
     (queue wait + serialization EWMA) exceeds the budget, refusing now
     is cheaper for everyone than waiting for a slot only to expire *)
  | Quota.Granted
    when req.budget_ms > 0
         && Atomic.get t.floor_count >= unmeetable_min_samples
         && floor_ns > req.budget_ms * 1_000_000 ->
    Metrics.inc m_shed_deadline;
    refuse Wire.Deadline_unmeetable
      (Printf.sprintf
         "deadline of %d ms is below the current overhead floor of ~%d ms \
          (recent queue wait + serialization)"
         req.budget_ms (ns_to_ms_ceil floor_ns))
  | Quota.Granted -> (
    let cancel =
      if req.budget_ms > 0 then Cancel.create ~start_ns:t0 req.budget_ms
      else Cancel.none
    in
    match Slots.enter t.slots with
    | Slots.Closed -> refuse Wire.Shutting_down "server is shutting down"
    | Slots.Full ->
      Metrics.inc m_shed_capacity;
      refuse Wire.Over_capacity
        (Printf.sprintf "every slot busy, %d waiting" t.config.queue_capacity)
    | Slots.Run ->
      (* a request holding its slot when [stop] lands finishes normally *)
      Fun.protect
        ~finally:(fun () -> Slots.leave t.slots)
        (fun () ->
          Option.iter (fun g -> g ()) t.gate;
          req.queue_wait_ns <- Trace.phase "serve.queue_wait" ~t0;
          Metrics.set m_queue_depth (float_of_int (Slots.waiting t.slots));
          let reply =
            if Cancel.cancelled cancel then
              (* the deadline passed while the request waited: shed it
                 here, before burn-in, so expired requests cost no
                 sampler CPU *)
              refuse Wire.Deadline_exceeded
                (Printf.sprintf "deadline of %d ms expired after %d ms in queue"
                   req.budget_ms
                   (ns_to_ms_ceil req.queue_wait_ns))
            else
              match
                Engine.query ~rid:req.rid ~phases:req.ph ~cancel t.engine q
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
                Answer { result = r; degraded }
              | exception Engine.Deadline_exceeded _ ->
                refuse Wire.Deadline_exceeded
                  (Printf.sprintf
                     "query %s: deadline expired before any round completed"
                     req.kind)
              | exception Engine.Chains_failed _ ->
                Metrics.inc m_engine_errors;
                refuse Wire.Chains_failed
                  (Printf.sprintf "query %s: too many chains failed" req.kind)
              | exception (Invalid_argument msg | Failure msg) ->
                Metrics.inc m_bad;
                refuse Wire.Bad_query msg
          in
          Metrics.observe m_request_seconds (Clock.now_ns () - t0);
          reply))

(* Serialise a request's reply and close its books, on the connection
   thread: the per-tenant phase histograms, the overhead floor, the
   deadline outcome, and one flight record, built after serialisation
   (the last phase it measures) and reused verbatim for the slow-query
   log line, so the log and /debug/requests can never disagree about a
   request. *)
let respond t req ?id reply =
  let t_ser = Clock.now_ns () in
  let line =
    match reply with
    | Answer { result; degraded } ->
      Wire.result_line ?id ~request_id:req.rid ~version:req.ph.Engine.version
        ~degraded result
    | Refused { code; msg; retry_after_ms } ->
      Wire.error_line ?id ~request_id:req.rid ?retry_after_ms code msg
  in
  let serialize_ns = Trace.phase "serve.serialize" ~t0:t_ser in
  let h = phase_handles req.tenant in
  let ph = req.ph in
  (* admission refusals never queued, planned or sampled *)
  let slotted = req.queue_wait_ns >= 0 in
  if slotted then begin
    observe_floor t ~queue_wait_ns:req.queue_wait_ns ~serialize_ns;
    Metrics.observe h.ph_queue_wait req.queue_wait_ns;
    Metrics.observe h.ph_plan ph.Engine.plan_ns;
    Metrics.observe h.ph_sample ph.Engine.sample_ns
  end;
  Metrics.observe h.ph_serialize serialize_ns;
  (* every deadline-carrying request settles into exactly one outcome;
     [cut_short]: the deadline cut it short (a partial answer or a
     typed deadline_exceeded) *)
  let cut_short =
    match reply with
    | Answer { result; _ } -> result.Engine.partial
    | Refused { code; _ } -> code = Wire.Deadline_exceeded
  in
  if req.budget_ms > 0 then begin
    match reply with
    | Answer _ ->
      Metrics.inc (if cut_short then m_deadline_partial else m_deadline_ok)
    | Refused { code = Wire.Deadline_exceeded; _ } ->
      Metrics.inc m_deadline_exceeded
    | Refused { code = Wire.Deadline_unmeetable; _ } ->
      Metrics.inc m_deadline_unmeetable
    | Refused _ -> ()
  end;
  let total_ns = t_ser + serialize_ns - req.t_admit in
  let slow =
    match t.config.slow_query_ms with
    | Some ms -> total_ns >= ms * 1_000_000
    | None -> false
  in
  if Flight.enabled () || slow then begin
    let path, fallback, error, version, digest, samples, rhat, mcse =
      match reply with
      | Answer { result = res; degraded = _ } ->
        ( (if res.Engine.cached then Flight.Cache
           else
             match res.Engine.plan with
             | Engine.Plan_exact _ -> Flight.Exact
             | Engine.Plan_mh _ -> Flight.Mh),
          (match res.Engine.plan with
          | Engine.Plan_mh { fallback = Some f; _ } -> f
          | _ -> ""),
          "", ph.Engine.version, res.Engine.model_digest,
          res.Engine.total_samples,
          res.Engine.rhat, res.Engine.mcse )
      | Refused { code; _ } ->
        (Flight.Err, "", Wire.code_string code, -1, "", 0, Float.nan, Float.nan)
    in
    let r =
      Flight.submit
        {
          Flight.seq = -1;
          id = req.rid;
          tenant = req.tenant;
          kind = req.kind;
          path;
          fallback;
          error;
          version;
          digest;
          queue_wait_ns = max 0 req.queue_wait_ns;
          plan_ns = ph.Engine.plan_ns;
          sample_ns = ph.Engine.sample_ns;
          serialize_ns;
          rounds = ph.Engine.rounds;
          samples;
          rhat;
          mcse;
          deadline_ns = req.budget_ms * 1_000_000;
          cancelled = cut_short;
          ts_ns = 0;
        }
    in
    if slow then begin
      Metrics.inc m_slow;
      Log.warn ~component:"serve" ~rid:req.rid "slow query (%d ms >= %d ms): %s"
        (ns_to_ms_ceil total_ns)
        (Option.value t.config.slow_query_ms ~default:0)
        (Flight.to_json r)
    end
  end;
  line

let ( let* ) = Result.bind

(* an optional millisecond budget: absent is [Ok None]; present, it must
   pass the one budget rule ([Some None]: not an integer) *)
let optional_budget name = function
  | None -> Ok None
  | Some v -> Result.map Option.some (Cancel.check_ms name v)

let answer_line t ?(tenant = "anonymous") ?rid ?deadline_ms ~lineno line =
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
      match member "tenant" with Some (Jsonl.Str s) -> s | _ -> tenant
    in
    let request ~kind ~budget_ms =
      { rid; tenant; kind; budget_ms; t_admit; queue_wait_ns = -1;
        ph = Engine.phases () }
    in
    let decoded =
      let* json = parsed in
      let* member_ms =
        optional_budget "deadline_ms"
          (Option.map Jsonl.to_int (Jsonl.member "deadline_ms" json))
      in
      let* q = Query.of_json json in
      Ok (q, member_ms)
    in
    match decoded with
    | Error msg ->
      Metrics.inc m_bad;
      Some
        (respond t
           (request ~kind:"" ~budget_ms:0)
           ?id
           (refuse Wire.Bad_request (Printf.sprintf "line %d: %s" lineno msg)))
    | Ok (q, member_ms) ->
      (* line member > connection header > server default; the
         server-wide cap clamps whatever won *)
      let budget =
        match (member_ms, deadline_ms) with
        | Some v, _ | None, Some v -> Some v
        | None, None -> t.config.default_deadline_ms
      in
      let budget =
        match (budget, t.config.max_deadline_ms) with
        | Some v, Some mx -> min v mx
        | Some v, None -> v
        | None, _ -> 0
      in
      let req = request ~kind:(Query.key q) ~budget_ms:budget in
      Some (respond t req ?id (execute t req q))
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
    active = Mutex.protect t.lock (fun () -> Hashtbl.length t.conns);
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
       \"workers\":%d}"
      (Wire.escape (if degraded then "degraded" else "ok"))
      version (Wire.escape digest)
      (Clock.seconds_of_ns (Clock.now_ns () - t.t_start))
      (queue_depth t) t.config.queue_capacity s.active s.requests s.answered
      s.shed_capacity s.shed_quota s.shed_deadline s.bad_requests
      s.engine_errors t.config.workers )

let health_json t = snd (health t)

(* ----- connection handling ----- *)

(* The one writer of a refusal that answers no query line: a typed
   error line and the HTTP status it travels under (400 unless given).
   The JSONL dialect, and a connection refused before its dialect is
   known, send the line alone. *)
let refusal ?(status = 400) ?(code = Wire.Bad_request) msg =
  (status, [], Wire.error_line code msg ^ "\n")

let send_refusal fd (_, _, line) = Sockio.write_all fd line

(* the refusal of a read the guard cut short: [silent] for a window of
   silence, or the dribbler's missed request deadline *)
let timeout_refusal t r ~silent =
  refusal
    (if Sockio.expired r then
       Printf.sprintf "request not completed within %d ms"
         (Sockio.request_windows
         * Option.value t.config.read_timeout_ms ~default:0)
     else silent)

(* each line is one request: [end_request] before answering it, so the
   guard's request deadline never runs while an answer is computed *)
let handle_jsonl t fd r first_line =
  let respond line lineno =
    Sockio.end_request r;
    Option.iter
      (fun resp -> Sockio.write_all fd (resp ^ "\n"))
      (answer_line t ~lineno line)
  in
  respond first_line 1;
  let rec go lineno =
    match Sockio.read_line r with
    | Sockio.Eof -> ()
    | Sockio.Timeout ->
      send_refusal fd
        (timeout_refusal t r
           ~silent:
             (Printf.sprintf "read timed out after %d ms with no complete line"
                (Option.value t.config.read_timeout_ms ~default:0)))
    | Sockio.Too_long ->
      send_refusal fd
        (refusal
           (Printf.sprintf "line %d exceeds %d bytes" lineno
              Sockio.max_line_bytes))
    | Sockio.Line line ->
      respond line lineno;
      go (lineno + 1)
  in
  go 2

let route t (req : Http.request) =
  let path, query = Http.split_target req.Http.path in
  match (req.Http.meth, path) with
  | "GET", "/healthz" ->
    let degraded, body = health t in
    ((if degraded then 503 else 200), [], body ^ "\n")
  | "GET", "/metrics" ->
    ( 200,
      [ ("Content-Type", "text/plain; version=0.0.4") ],
      Prometheus.to_string Metrics.default )
  | "GET", "/debug/requests" ->
    let n =
      match Option.bind (Http.query_param query "n") Http.decimal with
      | Some n when n > 0 -> n
      | _ -> 64
    in
    ( 200,
      [],
      match Flight.recent n with
      | [] -> "[]\n"
      | recs ->
        "[" ^ String.concat ",\n " (List.map Flight.to_json recs) ^ "]\n"
    )
  | "POST", "/query" -> (
    let tenant =
      match Http.header req "x-tenant" with
      | Some tn when tn <> "" -> tn
      | _ -> "anonymous"
    in
    (* X-Deadline-Ms sets the whole body's deadline; a per-line
       "deadline_ms" member overrides it line by line *)
    match
      optional_budget "X-Deadline-Ms"
        (Option.map
           (fun s -> Http.decimal (String.trim s))
           (Http.header req "x-deadline-ms"))
    with
    | Error msg ->
      Metrics.inc m_bad;
      refusal msg
    | Ok deadline_ms ->
      let lines = String.split_on_char '\n' req.Http.body in
      (* a client-supplied X-Request-Id names a single-line body
         verbatim; batched lines get a -<lineno> suffix so every answer
         (and flight record) still has its own id *)
      let client_rid =
        match Http.header req "x-request-id" with
        | Some r when r <> "" -> Some r
        | _ -> None
      in
      let single =
        List.length (List.filter (fun l -> String.trim l <> "") lines) = 1
      in
      let replies =
        List.filter_map Fun.id
          (List.mapi
             (fun i line ->
               let rid =
                 Option.map
                   (fun base ->
                     if single then base
                     else Printf.sprintf "%s-%d" base (i + 1))
                   client_rid
               in
               answer_line t ~tenant ?rid ?deadline_ms ~lineno:(i + 1) line)
             lines)
      in
      ( 200,
        (match client_rid with Some r -> [ ("X-Request-Id", r) ] | None -> []),
        String.concat "\n" replies ^ "\n" ))
  | "POST", "/evidence" -> (
    let lines =
      List.filter
        (fun l -> String.trim l <> "")
        (String.split_on_char '\n' req.Http.body)
    in
    match ingest t lines with
    | Some n -> (202, [], Printf.sprintf "{\"accepted\":%d}\n" n)
    | None ->
      refusal ~status:404
        "this server runs no learner: POST /evidence is not served")
  | meth, path ->
    refusal ~status:404 (Printf.sprintf "no route %s %s" meth path)

(* one request per connection ([Connection: close]): the guard's
   deadline spans the request line, the headers and the body *)
let handle_http t fd r first_line =
  let status, headers, body =
    match Http.read_request r ~first_line with
    | Http.Malformed msg -> refusal msg
    | Http.Overflow msg -> refusal ~status:413 msg
    | Http.Request req -> route t req
  in
  Sockio.write_all fd (Http.response ~headers ~status body)

let handle_conn t ~domain conn_id fd =
  let r = Sockio.reader fd in
  Option.iter (fun ms -> Sockio.guard r ~window_ms:ms) t.config.read_timeout_ms;
  Fun.protect
    ~finally:(fun () ->
      if Sockio.expired r then Metrics.inc m_reaped;
      (* out of the table before the close, under the lock, so [stop]
         never shuts down an fd number already reused *)
      Mutex.protect t.lock (fun () ->
          Hashtbl.remove t.conns conn_id;
          t.load.(domain) <- t.load.(domain) - 1;
          Metrics.set m_active (float_of_int (Hashtbl.length t.conns));
          (try Unix.close fd with Unix.Unix_error _ -> ());
          if Hashtbl.length t.conns = 0 then Condition.broadcast t.conns_empty))
    (fun () ->
      try
        match Sockio.read_line r with
        | Sockio.Eof -> ()
        | Sockio.Timeout ->
          send_refusal fd
            (timeout_refusal t r
               ~silent:"read timed out before a complete first line")
        | Sockio.Too_long -> send_refusal fd (refusal "first line too long")
        | Sockio.Line first ->
          if Http.is_http_verb first then handle_http t fd r first
          else handle_jsonl t fd r first
      with
      | Unix.Unix_error _ -> (* peer went away; nothing to salvage *) ()
      | Sys_error _ -> ())

(* A spawned serving domain's thread: start a thread here, in this
   domain, for each connection posted to its mailbox, until [stop]
   closes it. The domain then ends, and joining it waits for the
   threads it started. *)
let rec serve_mailbox t ~domain mb =
  match Bqueue.pop mb with
  | Some (conn_id, fd) ->
    ignore (Thread.create (fun () -> handle_conn t ~domain conn_id fd) ());
    serve_mailbox t ~domain mb
  | None -> ()

(* the serving domain with the fewest open connections, the lowest index
   on ties, so the acceptor's own domain takes the first *)
let least_loaded load =
  let best = ref 0 in
  Array.iteri (fun k n -> if n < load.(!best) then best := k) load;
  !best

let accept_loop t listen_fd =
  let stopping () = Mutex.protect t.lock (fun () -> t.state <> Running) in
  let rec go () =
    match Unix.accept listen_fd with
    | fd, _addr ->
      Metrics.inc m_connections;
      (* an answer must not wait for the ACK of the previous one *)
      (try Unix.setsockopt fd Unix.TCP_NODELAY true
       with Unix.Unix_error _ -> ());
      (* counted and placed under the lock: the table is the one count
         of open connections *)
      let placed =
        Mutex.protect t.lock (fun () ->
            if Hashtbl.length t.conns >= t.config.max_connections then None
            else begin
              let id = t.next_conn in
              t.next_conn <- id + 1;
              Hashtbl.replace t.conns id fd;
              Metrics.set m_active (float_of_int (Hashtbl.length t.conns));
              let k = least_loaded t.load in
              t.load.(k) <- t.load.(k) + 1;
              Some (id, k)
            end)
      in
      (match placed with
      | None ->
        Metrics.inc m_shed_connections;
        (try
           send_refusal fd
             (refusal ~code:Wire.Over_capacity "connection limit reached")
         with Unix.Unix_error _ -> ());
        (try Unix.close fd with Unix.Unix_error _ -> ())
      | Some (conn_id, 0) ->
        ignore (Thread.create (fun () -> handle_conn t ~domain:0 conn_id fd) ())
      | Some (conn_id, domain) ->
        (* never refused: a mailbox holds at most [max_connections] and
           closes only after the acceptor has stopped *)
        ignore (Bqueue.try_push (fst t.serving.(domain - 1)) (conn_id, fd)));
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

(* close every mailbox, then join its domain: once the connections are
   gone, each domain's thread returns and the join waits for the
   threads it started *)
let join_serving t =
  Array.iter (fun (mb, _) -> Bqueue.close mb) t.serving;
  Array.iter (fun (_, d) -> Domain.join d) t.serving;
  t.serving <- [||]

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
           Unix.listen fd backlog
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
  (* the acceptor places connections only once every domain is up; a
     spawn that fails ends the domains already started and unbinds *)
  (try
     for k = 1 to Array.length t.load - 1 do
       let mb = Bqueue.create t.config.max_connections in
       let d = Domain.spawn (fun () -> serve_mailbox t ~domain:k mb) in
       t.serving <- Array.append t.serving [| (mb, d) |]
     done
   with e ->
     join_serving t;
     (try Unix.close listen_fd with Unix.Unix_error _ -> ());
     Mutex.protect t.lock (fun () ->
         t.listen_fd <- None;
         t.state <- Idle);
     raise e);
  let acceptor = Thread.create (fun () -> accept_loop t listen_fd) () in
  Mutex.protect t.lock (fun () -> t.accept_thread <- Some acceptor);
  Log.info ~component:"serve"
    "listening on %s:%d (%d domains, %d workers, queue %d)" t.config.host
    (port t) (Array.length t.load) t.config.workers t.config.queue_capacity

let stop t =
  let to_stop =
    Mutex.protect t.lock (fun () ->
        match t.state with
        | Running ->
          t.state <- Stopping;
          true
        | Idle ->
          t.state <- Stopped;
          Condition.broadcast t.stopped_cv;
          false
        | Stopping | Stopped -> false)
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
    (* 4. every connection has closed: end the serving domains *)
    join_serving t;
    (* every request has answered: [wait] may return *)
    Mutex.protect t.lock (fun () ->
        t.state <- Stopped;
        Condition.broadcast t.stopped_cv)
  end

let wait t =
  Mutex.protect t.lock (fun () ->
      while t.state <> Stopped do
        Condition.wait t.stopped_cv t.lock
      done)
