(** Flow-probability estimation by Metropolis-Hastings sampling
    (paper Equations 5–8).

    Every estimator runs one chain: burn in, then take [samples] states
    spaced [thin] steps apart and average an indicator (or collect a
    statistic) over them. *)

type config = { burn_in : int; thin : int; samples : int }

val default_config : config
(** burn_in 1000, thin 20, samples 1000 — comfortable for the paper's
    50-node / 200-edge synthetic models. *)

val fold_samples :
  ?conditions:Conditions.t ->
  Iflow_stats.Rng.t -> Iflow_core.Icm.t -> config ->
  init:'a -> f:('a -> Iflow_core.Pseudo_state.t -> 'a) -> 'a
(** The shared sampling loop; [f] must not retain or mutate the state it
    is handed. *)

exception Cancelled
(** Raised by {!stream} / {!stream_next} when the stream's
    {!Cancel.t} token has tripped — between whole MH steps only, so a
    chain that is {e not} cancelled is bit-for-bit unaffected by the
    checks. *)

type stream
(** An open-ended per-chain sample stream: one burnt-in chain that hands
    out retained samples on demand, [thin] steps apart. This is the
    engine-facing view of a chain — callers that need incremental
    draws (adaptive stopping, cross-chain diagnostics) pull exactly as
    many samples as they decide to, instead of committing to a fixed
    [samples] budget up front. A stream owns its [Rng.t] and chain
    state; it must only be used from one domain at a time. *)

val stream :
  ?cancel:Cancel.t ->
  ?conditions:Conditions.t ->
  Iflow_stats.Rng.t -> Iflow_core.Icm.t -> burn_in:int -> thin:int -> stream
(** Create the chain, run the burn-in, and return the stream. Raises
    like {!Chain.create} (e.g. [Invalid_argument] when the conditions
    cannot be satisfied) and [Invalid_argument] on [burn_in < 0] or
    [thin < 1].

    [?cancel] (default {!Cancel.none}) makes the burn-in cooperative:
    the token is polled every 128 steps (chunked {!Chain.advance} —
    exactly the same step/RNG sequence as one big advance) and at
    every subsequent {!stream_next}, raising {!Cancelled} once it
    trips. An unexpired token changes nothing. *)

val stream_next : stream -> f:(Iflow_core.Pseudo_state.t -> 'a) -> 'a
(** Advance [thin] steps and apply [f] to the new retained state. [f]
    must not retain or mutate the state. Raises {!Cancelled} when the
    stream's token has tripped (checked before advancing, so a
    cancelled stream never draws again). *)

val stream_workspace : stream -> Iflow_graph.Reach.workspace
(** The stream's chain-owned BFS workspace — one per chain, so K
    chains never share scratch, whichever domains run them. Reuse it to evaluate indicators over retained samples
    without allocating. *)

val flow_probability :
  ?conditions:Conditions.t ->
  Iflow_stats.Rng.t -> Iflow_core.Icm.t -> config ->
  src:int -> dst:int -> float
(** Estimate of [Pr (src ~> dst | M, C)]. *)

val source_to_all :
  ?conditions:Conditions.t ->
  Iflow_stats.Rng.t -> Iflow_core.Icm.t -> config -> src:int -> float array
(** [Pr (src ~> v)] for every node [v] from a single chain (one
    reachability sweep per retained sample covers all sinks). The entry
    for [src] itself is 1. *)

val conditional_flow_by_ratio :
  Iflow_stats.Rng.t -> Iflow_core.Icm.t -> config ->
  conditions:Conditions.t -> src:int -> dst:int -> float
(** The paper's footnote-2 alternative to the constrained chain: sample
    the {i unconstrained} marginal chain and estimate
    [Pr (src ~> dst | C) = #(flow and C) / #C] — "trading off the number
    of samples with time per sample". Cheaper per step (no indicator
    check inside the transition), but wasteful when [Pr C] is small.
    Raises [Failure] when no retained sample satisfied the
    conditions. *)

val community_flow :
  ?conditions:Conditions.t ->
  Iflow_stats.Rng.t -> Iflow_core.Icm.t -> config ->
  src:int -> sinks:int list -> float
(** Probability that the object reaches every sink (source-to-community
    flow). *)

val joint_flow :
  ?conditions:Conditions.t ->
  Iflow_stats.Rng.t -> Iflow_core.Icm.t -> config ->
  flows:(int * int) list -> float
(** Probability that all the listed end-to-end flows co-occur. *)

val impact_samples :
  ?conditions:Conditions.t ->
  Iflow_stats.Rng.t -> Iflow_core.Icm.t -> config -> src:int -> int array
(** Per retained sample, the number of non-source nodes reached from
    [src] — the dispersion / "number of retweeting users" statistic of
    Fig 4. *)
