(** The parallel flow-query engine.

    Turns the one-shot estimator of {!Iflow_mcmc.Estimator} into a
    reusable service: each query the planner does not answer exactly
    runs K independent sample streams — Metropolis-Hastings chains, or,
    without conditions, forward cascades (see {!sampler}), in order on
    the calling domain — draws
    samples in adaptive rounds until the cross-chain {!Diagnostics} pass
    (split-R̂ ≤ target and MCSE ≤ target) or a sample budget is
    exhausted, and memoises results on the current model in an {!Lru}
    cache keyed by the query (conditions included): config and seed
    never change, and a {!swap} to a new model clears the cache.

    {b Reproducibility.} Every query derives its own seed by
    fingerprinting (engine seed, model digest, query key); chain [i]
    then takes the [i]-th {!Iflow_stats.Rng.split} of that stream, and
    chains are merged in index order. Results are therefore bit-for-bit
    identical across runs, across query arrival orders, and across the
    domains and threads that call {!query}.

    {b Thread safety.} An engine value may be driven by concurrent
    callers (threads or domains): the cache and the current
    (model, digest, version) triple sit behind one internal mutex, held
    only for cache probes and swaps, never while sampling. Each query
    pins the triple it sees at entry, so a {!swap} landing mid-query
    never mixes model versions inside one answer — the serving layer
    leans on exactly this during hot-swaps. Determinism is unaffected:
    per-query seeds depend only on (engine seed, model digest, query),
    not on interleaving. *)

type config = {
  chains : int;          (** independent MH chains per query *)
  domains : int option;
      (** serving domains for {!Iflow_serve.Server}; [None] = the
          recommended count. The engine itself never spawns a domain:
          a query's streams run in order on the calling domain. *)
  burn_in : int;         (** per-chain burn-in steps *)
  thin : int;            (** steps between retained samples *)
  round_samples : int;   (** per-chain samples per adaptive round *)
  max_samples : int;     (** cap on total retained samples across chains *)
  rhat_target : float;   (** stop when split-R̂ falls below this *)
  mcse_target : float;   (** ... and the Monte-Carlo SE below this *)
  cache_capacity : int;  (** LRU entries; 0 disables caching *)
  planner : bool;
      (** route queries through the exact-oracle planner
          ({!Iflow_plan.Planner}) first; [false] forces the MH path *)
}

val default_config : config
(** chains 4, recommended serving domains, burn-in 1000, thin 20 (matching
    {!Iflow_mcmc.Estimator.default_config}), rounds of 250, cap 20000,
    R̂ ≤ 1.05, MCSE ≤ 0.01, cache 256, planner on. *)

type sampler =
  | Mh  (** K Metropolis-Hastings chains ({!Iflow_mcmc.Estimator.stream}) *)
  | Direct
      (** K streams of independent lazy forward cascades
          ({!Iflow_core.Forward}, {!Query.draw}): exact draws, no
          burn-in. They draw on the calling domain's cascade scratch
          ({!Iflow_core.Forward.take}), so a warm domain answers without
          allocating on the major heap. *)

val sampler_label : sampler -> string
(** ["mh"] or ["direct"], as on the wire and in [explain]. *)

type phases = {
  mutable plan_ns : int;   (** time inside {!Iflow_plan.Planner.plan} *)
  mutable sample_ns : int; (** time inside the MH sampling loop *)
  mutable rounds : int;    (** adaptive rounds the sampler ran *)
  mutable version : int;   (** version id the query captured, set on
                               every path, cache hits included *)
}
(** Per-query phase decomposition and version tag, reported through a
    caller-provided side channel (see the [?phases] argument of
    {!query}) rather than in {!result} — results are cached and must
    stay bit-identical whether or not anyone measures them, and
    versions with one digest share entries. A cache hit leaves the
    timings at zero. *)

val phases : unit -> phases
(** A fresh record: timings zero, [version] [-1]. *)

type route =
  | Exact of Iflow_plan.Planner.exact  (** certified: the closed form *)
  | Sample of { sampler : sampler; reason : Iflow_plan.Planner.reason }
      (** sample; [reason] is the planner's refusal, or [Disabled] when
          the planner is off. [sampler] is [Direct] when the planner is
          on and the query has no conditions, [Mh] otherwise: without
          conditions the pseudo-state is a product of independent edge
          coins, so a cascade is an exact draw; conditioned queries
          need the chain, and [planner = false] keeps MH for
          everything. *)
  | Bad_query of Iflow_plan.Planner.reason
      (** a condition is infeasible ([Condition_infeasible]): no state
          meets it, so the query is refused before any sampling *)

val route : ?phases:phases -> config -> Iflow_core.Icm.t -> Query.t -> route
(** How {!query} answers a query that misses the cache, without
    answering it: the planner's verdict (one linear pass per cone, no
    sampling) and the sampler it would fall back to. [?phases]
    receives the planning time. Raises [Invalid_argument] when the
    query mentions a node outside the model, planner on or off. *)

type plan =
  | Plan_exact of { cone_nodes : int }
      (** answered in closed form by the planner; [cone_nodes] is the
          total size of the evaluated reachability cones *)
  | Plan_mh of { fallback : string option; sampler : sampler }
      (** answered by sampling, through the adaptive rounds and
          {!Diagnostics} stopping rule; [sampler] says which draws fed
          them. [fallback] is the planner's
          {!Iflow_plan.Planner.reason_label} when the planner was
          consulted and refused, [None] for pre-planner answers (e.g.
          parsed off the wire from an older peer). *)

type result = {
  estimate : float;      (** pooled flow-probability estimate *)
  rhat : float;          (** split-R̂ at stopping time *)
  ess : float;           (** total effective sample size *)
  mcse : float;          (** Monte-Carlo standard error *)
  total_samples : int;   (** retained samples actually drawn *)
  chains_used : int;     (** chains surviving to the estimate; a value
                             below [config.chains] marks a degraded
                             answer (some chains were lost to faults) *)
  cached : bool;         (** served from the cache without sampling *)
  partial : bool;
      (** an anytime answer: a cancel token stopped the adaptive loop
          before convergence, so the estimate pools only the rounds
          that completed and [rhat]/[mcse] are its real (possibly
          unconverged) diagnostics. Never cached. *)
  model_digest : string;
      (** {!Iflow_core.Icm.digest} of the model this answer was
          computed against *)
  plan : plan;
      (** how the answer was produced. Exact answers carry
          [rhat = 1.0], [ess = 0.0], [mcse = 0.0],
          [total_samples = 0], [chains_used = 0] — all finite, so the
          wire codec round-trips them bit-exactly. *)
}

exception
  Chains_failed of {
    query : string;   (** {!Query.key} of the failing query *)
    failed : int;
    chains : int;
    reason : string;  (** printed form of the first chain's exception *)
  }
(** Raised by {!query} when chain failures leave fewer than half the
    configured chains alive — too few for the cross-chain diagnostics
    to vouch for the estimate. Never a crash: the engine itself stays
    usable. *)

exception
  Deadline_exceeded of {
    query : string;   (** {!Query.key} of the cancelled query *)
  }
(** Raised by {!query} when its deadline passes before one sampling
    round has completed, so there is no partial answer to return. The
    engine stays usable; nothing is cached. *)

type t

val create : ?config:config -> seed:int -> Iflow_core.Icm.t -> t
(** Raises [Invalid_argument] on a nonsensical config (no chains,
    [thin < 1], [rhat_target < 1], ...). *)

val config : t -> config
val digest : t -> string
(** The model fingerprint used in per-query seeds:
    {!Iflow_core.Icm.digest} of the current model. *)

val version : t -> int * string
(** The current (version id, digest) pair, read under one lock, so
    both come from one {!swap} (id 0 before the first). *)

val swap : t -> version:int -> Iflow_core.Icm.t -> int
(** Hot-swap the engine onto model version [version]: the model, its
    {!Iflow_core.Icm.digest} and the id change together under the one
    lock. Subsequent queries run (and cache) against the new model,
    tagged [version], while a query already running finishes on the
    triple it captured at entry, and is not cached. A new digest clears
    the cache ({!Lru.clear}, counted in {!cache_stats} evictions);
    returns that eviction count (0 when the digests coincide; the tag
    still moves). The engine seed is kept, so swapping back reproduces
    earlier answers bit-for-bit. *)

val query :
  ?rid:string -> ?phases:phases ->
  ?cancel:Iflow_mcmc.Cancel.t -> t -> Query.t -> result
(** Answer one query, consulting the cache first. Raises
    [Invalid_argument] when the query mentions a node outside the
    model, or when its conditions cannot be satisfied. With the
    planner on, a condition the planner finds infeasible
    ([condition_infeasible]) raises before any sampling; without it, a
    chain start whose bounded repair finds no state meeting them ends
    the query there. Neither is a lost chain or is counted in
    [iflow_engine_failed_chains_total].

    [?rid] names the request for observability only: it is added to the
    [engine.sample] trace span. [?phases] receives the plan/sample time
    split and the captured version id (see {!phases}). Neither argument
    can reach the RNG, the cache key, or the result — answers are
    bit-for-bit identical with or without them.

    {b Deadlines.} [?cancel] (default {!Iflow_mcmc.Cancel.none})
    threads a cooperative deadline into the sampler: every stream polls
    it per retained draw, chains also inside the burn-in (128-step
    chunks), and the adaptive loop polls it at round boundaries. A
    deadline already passed at entry stops the query before any burn-in
    (cache hits and exact-planned answers are still returned — they
    cost nothing). When the deadline passes mid-query, the query
    returns the anytime answer over the rounds that completed — flagged
    [partial], carrying its real R̂/MCSE, and never cached — or raises
    {!Deadline_exceeded} when not even one round finished. A round
    interrupted mid-draw is discarded whole, so partial answers stand
    on the same whole-round footing as converged ones. A deadline that
    never passes changes nothing: answers are bit-for-bit identical to
    an undeadlined run
    (the checks read the clock, never the RNG).

    {b Planning.} With [config.planner] on (the default) the query is
    first offered to {!Iflow_plan.Planner}, which costs one linear pass
    over each target's reachability cone. Queries whose cones certify
    (no node but the source and the sink has two live cone out-edges:
    paths, in-stars, the paper's triangle and cycle motifs) are
    answered exactly, in closed form, with no sampling — [plan]
    records [Plan_exact] and the answer is cached under the same key a
    sampled one would use. Everything else is sampled, with the
    refusal reason in [plan]: by [Direct] cascades when the query has
    no conditions, by MH chains when it has (see {!sampler}). Stream
    [i] draws from the same [i]-th split either way. The planner is
    deterministic and RNG-free, so conditioned answers are bit-for-bit
    identical to a planner-less engine.

    {b Fault tolerance.} A stream that raises mid-query (including the
    [engine.chain] failpoint, hit once per stream and round on both
    samplers) is dropped — its partial round is
    discarded, the survivors' draws are untouched because every chain's
    RNG is split up front — and the query completes from the surviving
    chains as long as at least half remain ([chains_used] records how
    many; counted in [iflow_engine_failed_chains_total] /
    [iflow_engine_degraded_queries_total]). Below half, raises
    {!Chains_failed}. Degraded results are never cached, so the next
    ask re-samples at full strength. *)

val cache_stats : t -> Lru.stats
