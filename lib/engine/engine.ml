module Icm = Iflow_core.Icm
module Forward = Iflow_core.Forward
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

type sampler = Mh | Direct

let sampler_label = function Mh -> "mh" | Direct -> "direct"

(* Phase timings and the version tag live OUTSIDE [result] on purpose:
   results are cached in the LRU and must stay bit-identical whether or
   not anyone is measuring (and versions may share a digest), so callers
   pass a side channel the engine fills in place. *)
type phases = {
  mutable plan_ns : int; mutable sample_ns : int; mutable rounds : int;
  mutable version : int;
}

let phases () = { plan_ns = 0; sample_ns = 0; rounds = 0; version = -1 }

type route =
  | Exact of Planner.exact
  | Sample of { sampler : sampler; reason : Planner.reason }
  | Bad_query of Planner.reason

(* Without conditions the pseudo-state is a product of independent edge
   coins, so a forward cascade is an exact draw; conditioned queries
   need the chain. A planner-off engine keeps MH for everything. *)
let route ?phases:ph config icm q =
  if Query.max_node q >= Icm.n_nodes icm then
    invalid_arg
      (Printf.sprintf "Engine: query %s references node >= %d" (Query.key q)
         (Icm.n_nodes icm));
  if not config.planner then Sample { sampler = Mh; reason = Planner.Disabled }
  else begin
    let t0 = Clock.now_ns () in
    let planned =
      Planner.plan icm ~targets:(Query.targets q) ~conditions:(Query.conditions q)
    in
    (match ph with
    | Some ph -> ph.plan_ns <- ph.plan_ns + Trace.phase "engine.plan" ~t0
    | None -> ());
    match planned with
    | Ok e -> Exact e
    | Error (Planner.Condition_infeasible _ as reason) -> Bad_query reason
    | Error reason ->
      Sample { sampler = (if Query.conditions q = [] then Direct else Mh); reason }
  end

type plan =
  | Plan_exact of { cone_nodes : int }
  | Plan_mh of { fallback : string option; sampler : sampler }

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
  Deadline_exceeded of { query : string }

let () =
  Printexc.register_printer (function
    | Chains_failed { query; failed; chains; reason } ->
      Some
        (Printf.sprintf
           "Engine.Chains_failed: query %s lost %d of %d chains (first \
            failure: %s)"
           query failed chains reason)
    | Deadline_exceeded { query } ->
      Some
        (Printf.sprintf
           "Engine.Deadline_exceeded: query %s: deadline expired before any \
            round completed"
           query)
    | _ -> None)

type t = {
  mutable icm : Icm.t;
  mutable digest : string;
  mutable version : int;
  config : config;
  cache : (string, result) Lru.t;
  seed : int;
  lock : Mutex.t;
      (* guards [icm]/[digest]/[version]/[cache]; never held while
         sampling, so concurrent callers only serialise on the cache *)
}

(* called under the lock, after the entry count may have changed *)
let set_cache_entries t =
  Metrics.set m_cache_entries (float_of_int (Lru.length t.cache))

let create ?(config = default_config) ~seed icm =
  validate_config config;
  {
    icm;
    digest = Icm.digest icm;
    version = 0;
    config;
    cache =
      Lru.create
        ~on_evict:(fun () -> Metrics.inc m_cache_evictions)
        config.cache_capacity;
    seed;
    lock = Mutex.create ();
  }

let locked t f = Mutex.protect t.lock f

let digest t = locked t (fun () -> t.digest)
let version t = locked t (fun () -> (t.version, t.digest))
let config t = t.config
let cache_stats t = locked t (fun () -> Lru.stats t.cache)

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

let run_query ?rid ~ph ?(cancel = Cancel.none) ~sampler t ~icm ~digest q =
  let span_args =
    ("key", Trace.Str (Query.key q))
    ::
    (match rid with Some r -> [ ("rid", Trace.Str r) ] | None -> [])
  in
  let t0 = Clock.now_ns () in
  let c = t.config in
  let conditions = Conditions.v (Query.conditions q) in
  let qrng = Rng.create (query_seed t ~digest q) in
  (* chain RNGs are fixed up front, so losing chain i to a fault never
     perturbs the draws of the survivors *)
  let chain_rngs = Array.init c.chains (fun _ -> Rng.split qrng) in
  (* [draw_round i n]: n retained draws from stream i, which is built
     on first use; [release ()] once drawing is over *)
  let draw_round, release =
    match sampler with
    | Mh ->
      let streams = Array.make c.chains None in
      let draw i n =
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
        let ws = Estimator.stream_workspace st in
        Array.init n (fun _ ->
            Estimator.stream_next st ~f:(fun state ->
                if Query.indicator_ws ws icm q state then 1.0 else 0.0))
      in
      (draw, ignore)
    | Direct ->
      (* the streams run one after another, and every draw starts from a
         fresh state, so they share the domain's scratch *)
      let fw = Forward.take icm in
      let draw i n =
        let rng = chain_rngs.(i) in
        Array.init n (fun _ ->
            if Cancel.cancelled cancel then raise Estimator.Cancelled;
            if Query.draw fw rng q then 1.0 else 0.0)
      in
      (draw, fun () -> Forward.put fw)
  in
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
    (* the streams run in order on the calling domain; a raising
       stream yields [Error] in its slot and the rest still draw *)
    let draws =
      Array.map
        (fun i ->
          match
            Fail.point "engine.chain";
            draw_round i per_chain
          with
          | xs -> Ok xs
          | exception e -> Error e)
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
          | Error (Invalid_argument msg) ->
            (* every chain shares the model and the conditions, so an
               argument error (a start whose bounded repair found no
               state meeting the conditions) is the query's fault, not
               a lost chain: it ends the query as a bad query *)
            invalid_arg (Printf.sprintf "query %s: %s" (Query.key q) msg)
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
  release ();
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
      plan = Plan_mh { fallback = None; sampler };
    }
  in
  if not !cancelled then finish ~partial:false
  else begin
    Metrics.inc m_deadline_queries;
    (* anytime answer: the estimate over every complete round, with its
       real (possibly unconverged) diagnostics, flagged partial *)
    if !rounds >= 1 then finish ~partial:true
    else raise (Deadline_exceeded { query = Query.key q })
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

(* Plan, then answer (see [route]). Planning is RNG-free, so
   conditioned answers on the MH path stay bit-for-bit what they were
   without a planner. *)
let compute ?rid ~ph ?cancel t ~icm ~digest q =
  match route ~phases:ph t.config icm q with
  | Bad_query reason ->
    (* no state meets the conditions: a bad query, refused before any
       chain starts *)
    Planner.record_fallback reason;
    invalid_arg
      (Printf.sprintf "query %s: %s" (Query.key q) (Planner.describe reason))
  | Sample { sampler; reason } ->
    Planner.record_fallback reason;
    {
      (run_query ?rid ~ph ?cancel ~sampler t ~icm ~digest q) with
      plan = Plan_mh { fallback = Some (Planner.reason_label reason); sampler };
    }
  | Exact e ->
    Planner.record_exact ();
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
      plan = Plan_exact { cone_nodes = e.Planner.cone_nodes };
    }

(* The cache holds answers on the current model only: config and seed
   never change, so [Query.key] (conditions included) is the whole key,
   and a swap to a new digest clears it. *)
let swap t ~version icm =
  let digest = Icm.digest icm in
  locked t (fun () ->
      let evicted =
        if String.equal digest t.digest then 0 else Lru.clear t.cache
      in
      t.icm <- icm;
      t.digest <- digest;
      t.version <- version;
      set_cache_entries t;
      evicted)

let query ?rid ?phases:caller ?cancel t q =
  Metrics.inc m_queries;
  let key = Query.key q in
  (* a query pins the (model, digest, version) triple it sees at entry,
     probing the cache under the same lock: everything downstream uses
     the captured triple, so a [swap] landing mid-query can never mix
     two model versions inside one answer. Nothing here raises, so the
     lock is taken without a closure. *)
  Mutex.lock t.lock;
  let icm = t.icm and digest = t.digest and version = t.version in
  let hit = Lru.find t.cache key in
  Mutex.unlock t.lock;
  Option.iter (fun (p : phases) -> p.version <- version) caller;
  match hit with
  | Some r ->
    Metrics.inc m_cache_hits;
    { r with cached = true }
  | None ->
    Metrics.inc m_cache_misses;
    let ph = match caller with Some p -> p | None -> phases () in
    let r = compute ?rid ~ph ?cancel t ~icm ~digest q in
    if cacheable t r then
      locked t (fun () ->
          (* an answer on a superseded model would only sit there *)
          if String.equal digest t.digest then begin
            Lru.add t.cache key r;
            set_cache_entries t
          end);
    r
