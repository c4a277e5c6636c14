module Icm = Iflow_core.Icm
module Rng = Iflow_stats.Rng
module Fingerprint = Iflow_stats.Fingerprint
module Estimator = Iflow_mcmc.Estimator
module Conditions = Iflow_mcmc.Conditions
module Cancel = Iflow_mcmc.Cancel
module Metrics = Iflow_obs.Metrics
module Trace = Iflow_obs.Trace
module Clock = Iflow_obs.Clock
module Fail = Iflow_fault.Fail
module Planner = Iflow_plan.Planner
module Obs_log = Iflow_obs.Log

let m_queries =
  Metrics.counter ~help:"Flow queries answered (cache hits included)"
    "iflow_engine_queries_total"

let m_rounds =
  Metrics.counter ~help:"Adaptive sampling rounds across all queries"
    "iflow_engine_query_rounds_total"

let m_samples =
  Metrics.counter ~help:"Indicator samples drawn across all queries"
    "iflow_engine_samples_total"

let m_query_seconds =
  Metrics.histogram ~scale:1e-9 ~help:"Wall time per sampled (uncached) query"
    "iflow_engine_query_seconds"

let m_last_rhat =
  Metrics.gauge ~help:"Split R-hat at stop of the most recent sampled query"
    "iflow_engine_last_rhat"

let m_last_mcse =
  Metrics.gauge ~help:"MCSE at stop of the most recent sampled query"
    "iflow_engine_last_mcse"

let m_cache_hits =
  Metrics.counter ~help:"Result cache hits" "iflow_engine_cache_hits_total"

let m_cache_misses =
  Metrics.counter ~help:"Result cache misses" "iflow_engine_cache_misses_total"

let m_cache_evictions =
  Metrics.counter ~help:"Result cache evictions (LRU pressure and hot-swap)"
    "iflow_engine_cache_evictions_total"

let m_cache_entries =
  Metrics.gauge ~help:"Result cache entries" "iflow_engine_cache_entries"

let m_failed_chains =
  Metrics.counter ~help:"MH chains lost to exceptions during queries"
    "iflow_engine_failed_chains_total"

let m_degraded_queries =
  Metrics.counter
    ~help:"Queries completed from surviving chains after chain failures"
    "iflow_engine_degraded_queries_total"

let m_cancelled_rounds =
  Metrics.counter
    ~help:"Sampling rounds abandoned mid-draw by a tripped cancel token"
    "iflow_engine_cancelled_rounds_total"

let m_deadline_queries =
  Metrics.counter
    ~help:"Queries stopped by a tripped cancel token (partial or failed)"
    "iflow_engine_deadline_queries_total"

type config = {
  chains : int;
  domains : int option;
  burn_in : int;
  thin : int;
  round_samples : int;
  max_samples : int;
  rhat_target : float;
  mcse_target : float;
  cache_capacity : int;
  planner : bool;
  plan_validate : bool;
}

let default_config =
  {
    chains = 4;
    domains = None;
    burn_in = 1000;
    thin = 20;
    round_samples = 250;
    max_samples = 20_000;
    rhat_target = 1.05;
    mcse_target = 0.01;
    cache_capacity = 256;
    planner = true;
    plan_validate = false;
  }

let validate_config c =
  let bad fmt = Printf.ksprintf invalid_arg ("Engine: bad config: " ^^ fmt) in
  if c.chains < 1 then bad "chains must be >= 1 (got %d)" c.chains;
  if c.burn_in < 0 then bad "burn_in must be >= 0 (got %d)" c.burn_in;
  if c.thin < 1 then bad "thin must be >= 1 (got %d)" c.thin;
  if c.round_samples < 1 then
    bad "round_samples must be >= 1 (got %d)" c.round_samples;
  if c.max_samples < c.chains then
    bad "max_samples must be >= chains (got %d < %d)" c.max_samples c.chains;
  if c.rhat_target < 1.0 then
    bad "rhat_target must be >= 1 (got %g)" c.rhat_target;
  if not (c.mcse_target > 0.0) then
    bad "mcse_target must be > 0 (got %g)" c.mcse_target;
  if c.cache_capacity < 0 then
    bad "cache_capacity must be >= 0 (got %d)" c.cache_capacity;
  match c.domains with
  | Some d when d < 1 -> bad "domains must be >= 1 (got %d)" d
  | _ -> ()

type plan =
  | Plan_exact of { cone_nodes : int; validated : bool }
  | Plan_mh of { fallback : string option }

(* Phase timings and the version tag live OUTSIDE [result] on purpose:
   results are cached in the LRU and must stay bit-identical whether or
   not anyone is measuring (and versions may share a digest), so callers
   pass a side channel the engine fills in place. *)
type phases = {
  mutable plan_ns : int; mutable sample_ns : int; mutable rounds : int;
  mutable version : int;
}

let phases () = { plan_ns = 0; sample_ns = 0; rounds = 0; version = -1 }

type result = {
  estimate : float;
  rhat : float;
  ess : float;
  mcse : float;
  total_samples : int;
  chains_used : int;
  cached : bool;
  partial : bool;
  model_digest : string;
  plan : plan;
}

exception
  Chains_failed of {
    query : string;
    failed : int;
    chains : int;
    reason : string;
  }

exception
  Deadline_exceeded of {
    query : string;
    reason : string; (* "deadline expired" or the explicit fire reason *)
    rounds : int; (* full rounds completed before the token tripped *)
  }

let () =
  Printexc.register_printer (function
    | Chains_failed { query; failed; chains; reason } ->
      Some
        (Printf.sprintf
           "Engine.Chains_failed: query %s lost %d of %d chains (first \
            failure: %s)"
           query failed chains reason)
    | Deadline_exceeded { query; reason; rounds } ->
      Some
        (Printf.sprintf
           "Engine.Deadline_exceeded: query %s cancelled (%s) after %d \
            complete rounds"
           query reason rounds)
    | _ -> None)

type t = {
  mutable icm : Icm.t;
  mutable digest : string;
  mutable version : int;
  config : config;
  pool : Pool.t;
  cache : (string, result) Lru.t;
  seed : int;
  lock : Mutex.t;
      (* guards [icm]/[digest]/[version]/[cache]; never held while
         sampling, so concurrent callers only serialise on the cache *)
}

(* called under the lock, after the entry count may have changed *)
let set_cache_entries t =
  Metrics.set m_cache_entries (float_of_int (Lru.length t.cache))

let config_key c =
  Printf.sprintf "k%d b%d t%d r%d n%d rh%h mc%h p%d v%d" c.chains c.burn_in
    c.thin c.round_samples c.max_samples c.rhat_target c.mcse_target
    (if c.planner then 1 else 0)
    (if c.plan_validate then 1 else 0)

let create ?(config = default_config) ~seed icm =
  validate_config config;
  {
    icm;
    digest = Icm.digest icm;
    version = 0;
    config;
    pool = Pool.create ?size:config.domains ();
    cache =
      Lru.create
        ~on_evict:(fun () -> Metrics.inc m_cache_evictions)
        config.cache_capacity;
    seed;
    lock = Mutex.create ();
  }

let locked t f = Mutex.protect t.lock f

let icm t = locked t (fun () -> t.icm)
let digest t = locked t (fun () -> t.digest)
let version t = locked t (fun () -> (t.version, t.digest))
let config t = t.config
let pool_size t = Pool.size t.pool
let cache_stats t = locked t (fun () -> Lru.stats t.cache)

(* a query pins the (model, digest, version) triple it sees at entry:
   everything downstream uses the captured triple, so a [swap] landing
   mid-query can never mix two model versions inside one answer *)
let capture t = locked t (fun () -> (t.icm, t.digest, t.version))

let cache_key t ~digest q =
  (* (model digest, query, conditions, config, seed): conditions are
     part of Query.key *)
  Printf.sprintf "%s/%s/%d/%s" digest (config_key t.config) t.seed (Query.key q)

(* Per-query seed derived from (engine seed, model, query), so results
   are independent of the order queries arrive in — a cached result and
   a recomputed one can never disagree. *)
let query_seed t ~digest q =
  let fp = Fingerprint.create () in
  Fingerprint.add_int fp t.seed;
  Fingerprint.add_string fp digest;
  Fingerprint.add_string fp (Query.key q);
  Fingerprint.to_seed fp

(* Growable per-chain sample buffer; samples are 0/1 indicator draws. *)
type buffer = { mutable data : float array; mutable len : int }

let buffer_create () = { data = Array.make 256 0.0; len = 0 }

let buffer_push b x =
  if b.len = Array.length b.data then begin
    let grown = Array.make (2 * b.len) 0.0 in
    Array.blit b.data 0 grown 0 b.len;
    b.data <- grown
  end;
  b.data.(b.len) <- x;
  b.len <- b.len + 1

let buffer_contents b = Array.sub b.data 0 b.len

let run_query ?rid ~ph ?(cancel = Cancel.none) ?(on_deadline = `Fail) t ~icm
    ~digest q =
  let span_args =
    ("key", Trace.Str (Query.key q))
    ::
    (match rid with Some r -> [ ("rid", Trace.Str r) ] | None -> [])
  in
  (* the numeric flow id ties this query's spans (conn thread, worker
     thread, pool domains) into one arrowed chain in the trace viewer *)
  let flow =
    match rid with
    | Some r when Trace.enabled () -> Some (Trace.flow_id r)
    | _ -> None
  in
  let flow_linked = Atomic.make false in
  let t0 = Clock.now_ns () in
  let c = t.config in
  let conditions = Conditions.v (Query.conditions q) in
  let qrng = Rng.create (query_seed t ~digest q) in
  (* chain RNGs are fixed up front, so losing chain i to a fault never
     perturbs the draws of the survivors *)
  let chain_rngs = Array.init c.chains (fun _ -> Rng.split qrng) in
  let streams = Array.make c.chains None in
  let buffers = Array.init c.chains (fun _ -> buffer_create ()) in
  let failed = Array.make c.chains false in
  let first_failure = ref None in
  let survivors () =
    Array.fold_left (fun n f -> if f then n else n + 1) 0 failed
  in
  let fail_chain i e =
    failed.(i) <- true;
    if !first_failure = None then first_failure := Some e;
    Metrics.inc m_failed_chains;
    (* a majority of chains must survive for the estimate to stand on
       the cross-chain diagnostics; below that, fail the query loudly *)
    if 2 * survivors () < c.chains then
      raise
        (Chains_failed
           {
             query = Query.key q;
             failed = c.chains - survivors ();
             chains = c.chains;
             reason = Printexc.to_string (Option.get !first_failure);
           })
  in
  let live () =
    let out = ref [] in
    for i = c.chains - 1 downto 0 do
      if not failed.(i) then out := i :: !out
    done;
    Array.of_list !out
  in
  let total = ref 0 in
  let finished = ref false in
  let cancelled = ref false in
  let last_summary = ref None in
  let rounds = ref 0 in
  (* shed before burn-in: a token already tripped at entry costs zero
     sampler work *)
  if Cancel.cancelled cancel then cancelled := true;
  while not (!finished || !cancelled) do
    let live_chains = live () in
    let k = Array.length live_chains in
    let per_chain =
      min c.round_samples (max 1 ((c.max_samples - !total + k - 1) / k))
    in
    let draws =
      Pool.run_results t.pool
        (fun i ->
          Fail.point "engine.chain";
          (match flow with
          | Some id ->
            (* one step event per query, from whichever pool domain
               picks a chain up first — this is the cross-domain hop *)
            if not (Atomic.exchange flow_linked true) then
              Trace.flow_step "request" ~id
          | None -> ());
          let st =
            match streams.(i) with
            | Some st -> st
            | None ->
              let st =
                Estimator.stream ~cancel ~conditions chain_rngs.(i) icm
                  ~burn_in:c.burn_in ~thin:c.thin
              in
              streams.(i) <- Some st;
              st
          in
          (* each chain owns its workspace, so the K chains of a query
             run allocation-free on K domains without sharing scratch *)
          let ws = Estimator.stream_workspace st in
          Array.init per_chain (fun _ ->
              Estimator.stream_next st ~f:(fun state ->
                  if Query.indicator_ws ws icm q state then 1.0 else 0.0)))
        live_chains
    in
    (* a token tripping mid-round aborts the whole round: the draws of
       chains that did finish it are discarded, so any partial answer
       stands only on rounds every live chain completed — the same
       whole-round footing a converged answer has *)
    if
      Array.exists
        (function Error Estimator.Cancelled -> true | _ -> false)
        draws
    then begin
      cancelled := true;
      Metrics.inc m_cancelled_rounds
    end
    else begin
      Array.iteri
        (fun slot r ->
          let i = live_chains.(slot) in
          match r with
          | Ok xs ->
            Array.iter (buffer_push buffers.(i)) xs;
            total := !total + Array.length xs
          | Error e -> fail_chain i e)
        draws;
      incr rounds;
      let s =
        Diagnostics.summary
          (Array.map (fun i -> buffer_contents buffers.(i)) (live ()))
      in
      last_summary := Some s;
      if
        Diagnostics.converged ~rhat_target:c.rhat_target
          ~mcse_target:c.mcse_target s
        || !total >= c.max_samples
      then finished := true
      else if Cancel.cancelled cancel then
        (* the round-boundary check: stop between rounds, keeping the
           round that just completed *)
        cancelled := true
    end
  done;
  ph.sample_ns <-
    ph.sample_ns
    + Trace.phase ~hist:m_query_seconds ~args:span_args "engine.sample" ~t0;
  ph.rounds <- ph.rounds + !rounds;
  Metrics.add m_rounds !rounds;
  let finish ~partial =
    let s = Option.get !last_summary in
    let chains_used = survivors () in
    if chains_used < c.chains then Metrics.inc m_degraded_queries;
    Metrics.add m_samples s.Diagnostics.n_total;
    Metrics.set m_last_rhat s.Diagnostics.rhat;
    Metrics.set m_last_mcse s.Diagnostics.mcse;
    {
      estimate = s.Diagnostics.mean;
      rhat = s.Diagnostics.rhat;
      ess = s.Diagnostics.ess;
      mcse = s.Diagnostics.mcse;
      total_samples = s.Diagnostics.n_total;
      chains_used;
      cached = false;
      partial;
      model_digest = digest;
      plan = Plan_mh { fallback = None };
    }
  in
  if not !cancelled then finish ~partial:false
  else begin
    Metrics.inc m_deadline_queries;
    match on_deadline with
    | `Partial when !rounds >= 1 && !last_summary <> None ->
      (* anytime answer: the estimate over every complete round, with
         its real (possibly unconverged) diagnostics, flagged partial *)
      finish ~partial:true
    | _ ->
      raise
        (Deadline_exceeded
           {
             query = Query.key q;
             reason =
               Option.value (Cancel.reason cancel) ~default:"cancelled";
             rounds = !rounds;
           })
  end

(* Degraded sampled answers reflect a transient fault, not the model,
   and must not outlive it in the cache; exact answers have no chains
   to lose and always cache. *)
(* ... and partial (deadline-cut) answers likewise reflect the
   deadline, not the model: never cached. *)
let cacheable t r =
  match r.plan with
  | Plan_exact _ -> true
  | Plan_mh _ -> (not r.partial) && r.chains_used = t.config.chains

(* Plan, then answer: closed form when the planner certifies the whole
   query, the MH sampler (tagged with the fallback reason) otherwise.
   Planning is RNG-free and run_query is untouched, so answers on the
   MH path stay bit-for-bit what they were without a planner. *)
let compute ?rid ~ph ?cancel ?on_deadline t ~icm ~digest q =
  if Query.max_node q >= Icm.n_nodes icm then
    invalid_arg
      (Printf.sprintf "Engine: query %s references node >= %d" (Query.key q)
         (Icm.n_nodes icm));
  if not t.config.planner then begin
    Planner.record_fallback Planner.Disabled;
    {
      (run_query ?rid ~ph ?cancel ?on_deadline t ~icm ~digest q) with
      plan = Plan_mh { fallback = Some (Planner.reason_label Planner.Disabled) };
    }
  end
  else begin
    let t0 = Clock.now_ns () in
    let planned =
      Planner.plan icm ~targets:(Query.targets q) ~conditions:(Query.conditions q)
    in
    ph.plan_ns <- ph.plan_ns + Trace.phase "engine.plan" ~t0;
    match planned with
    | Error reason ->
      Planner.record_fallback reason;
      {
        (run_query ?rid ~ph ?cancel ?on_deadline t ~icm ~digest q) with
        plan = Plan_mh { fallback = Some (Planner.reason_label reason) };
      }
    | Ok e ->
      Planner.record_exact ();
      let r =
        {
          estimate = e.Planner.value;
          rhat = 1.0;
          ess = 0.0;
          mcse = 0.0;
          total_samples = 0;
          chains_used = 0;
          cached = false;
          partial = false;
          model_digest = digest;
          plan =
            Plan_exact
              {
                cone_nodes = e.Planner.cone_nodes;
                validated = t.config.plan_validate;
              };
        }
      in
      if t.config.plan_validate then begin
        (* Exact_then_validate: also run the full MH path and cross
           check within its own error bar; the answer stays exact *)
        match run_query ?rid ~ph ?cancel t ~icm ~digest q with
        | mh ->
          let tol = (5.0 *. mh.mcse) +. 1e-9 in
          let agreed = Float.abs (mh.estimate -. r.estimate) <= tol in
          Planner.record_validation ~agreed;
          if not agreed then
            Obs_log.warn ~component:"engine"
              "plan validation disagreement on %s: exact %.6f vs MH %.6f \
               (mcse %.6f)"
              (Query.key q) r.estimate mh.estimate mh.mcse
        | exception Deadline_exceeded _ ->
          (* the deadline tripped inside the optional cross-check; the
             exact answer stands unvalidated *)
          ()
      end;
      r
  end

let invalidate_locked t ~digest =
  let prefix = digest ^ "/" in
  let plen = String.length prefix in
  Lru.evict_where t.cache (fun key ->
      String.length key >= plen && String.sub key 0 plen = prefix)

let invalidate t ~digest = locked t (fun () -> invalidate_locked t ~digest)

let swap t ~version icm =
  let digest = Icm.digest icm in
  locked t (fun () ->
      let retired = t.digest in
      t.icm <- icm;
      t.digest <- digest;
      t.version <- version;
      let evicted =
        if t.digest = retired then 0 else invalidate_locked t ~digest:retired
      in
      set_cache_entries t;
      evicted)

let query ?rid ?phases:caller ?cancel ?on_deadline t q =
  Metrics.inc m_queries;
  let icm, digest, version = capture t in
  Option.iter (fun (p : phases) -> p.version <- version) caller;
  let key = cache_key t ~digest q in
  match locked t (fun () -> Lru.find t.cache key) with
  | Some r ->
    Metrics.inc m_cache_hits;
    { r with cached = true }
  | None ->
    Metrics.inc m_cache_misses;
    let ph = match caller with Some p -> p | None -> phases () in
    let r = compute ?rid ~ph ?cancel ?on_deadline t ~icm ~digest q in
    if cacheable t r then
      locked t (fun () ->
          Lru.add t.cache key r;
          set_cache_entries t);
    r

let pp_result ppf r =
  match r.plan with
  | Plan_exact { cone_nodes; validated } ->
    Format.fprintf ppf "%.5f (exact, cone %d nodes%s%s)" r.estimate cone_nodes
      (if validated then ", validated" else "")
      (if r.cached then ", cached" else "")
  | Plan_mh _ ->
    Format.fprintf ppf
      "%.5f (R-hat %.4f, ESS %.0f, MCSE %.5f, n %d, chains %d%s%s)" r.estimate
      r.rhat r.ess r.mcse r.total_samples r.chains_used
      (if r.partial then ", partial" else "")
      (if r.cached then ", cached" else "")
