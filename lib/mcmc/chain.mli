(** The paper's Metropolis-Hastings sampler over pseudo-states
    (Section III, Algorithm 1).

    The proposal flips exactly one edge, drawn from a multinomial whose
    weight for edge [e] is the probability of the activity it would have
    {i after} the flip — [p_e] when currently inactive, [1 - p_e] when
    active. The weights live in a Fenwick tree, so drawing the proposal
    and maintaining its normaliser [Z] take O(log m) per step. With this
    proposal the acceptance probability collapses to

      [A(x, x') = I(x', C) * min (Z / Z', 1)]

    where [Z'] differs from [Z] only by the flipped edge's weight. *)

type t

val create :
  ?conditions:Conditions.t ->
  ?init:Iflow_core.Pseudo_state.t ->
  Iflow_stats.Rng.t -> Iflow_core.Icm.t -> t
(** Fresh chain. Without [init], the initial state is drawn from the
    marginal (or repaired to satisfy [conditions]). Raises
    [Invalid_argument] when no state satisfying the conditions could be
    constructed (the conditions are infeasible, or too tight for the
    bounded repair of {!Conditions.initial_state}), and when [init]
    itself violates them or has zero probability. *)

val state : t -> Iflow_core.Pseudo_state.t
(** The live current state — not a copy; do not mutate (the chain's
    incremental reachability caches assume every edit goes through
    {!step}). *)

val workspace : t -> Iflow_graph.Reach.workspace
(** The chain's BFS workspace. Estimators reuse it for reachability
    sweeps over retained samples, so a whole chain — stepping and
    querying — runs on one preallocated scratch area. Single-domain,
    like the chain itself. *)

val step : Iflow_stats.Rng.t -> t -> unit
(** One Metropolis-Hastings transition (propose, accept or reject). It
    allocates nothing, with or without conditions. *)

val advance : Iflow_stats.Rng.t -> t -> int -> unit
(** [advance rng t k] performs [k] steps — used for burn-in and
    thinning. *)

val steps_taken : t -> int
val acceptance_rate : t -> float

val cache_stats : t -> Iflow_graph.Reach.Cache.stats
(** Update-rule tallies summed over the chain's per-source reachability
    caches (all zero for an unconditioned chain). *)

val normaliser : t -> float
(** Current proposal normaliser Z (exposed for tests of the O(log m)
    bookkeeping). *)
