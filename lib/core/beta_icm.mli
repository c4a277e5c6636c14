(** betaICMs: ICMs whose edge activation probabilities are uncertain and
    carried as independent Beta distributions (paper Section II-A).

    A betaICM is a distribution over point-probability ICMs; flow queries
    either collapse it to the expected ICM or sample ICMs from it (nested
    Metropolis-Hastings, Section III-E).

    {b Representation.} A model holds its graph and the posterior as two
    flat float arrays, [alpha.(e)] and [beta.(e)] for edge [e] — the
    layout {!Accum} keeps. No per-edge [Beta.t] is stored:
    {!edge_beta} builds one on demand, and {!expected_icm} and {!digest}
    read the arrays directly, so neither boxes a value per edge. *)

type t

val create : Iflow_graph.Digraph.t -> Iflow_stats.Dist.Beta.t array -> t
(** One beta per edge; length must match the edge count. *)

val uninformed : Iflow_graph.Digraph.t -> t
(** Beta(1, 1) everywhere — the untrained prior. *)

val graph : t -> Iflow_graph.Digraph.t
val edge_beta : t -> int -> Iflow_stats.Dist.Beta.t
val n_nodes : t -> int
val n_edges : t -> int

val train_attributed : Iflow_graph.Digraph.t -> Evidence.attributed -> t
(** The paper's attributed training rule: start every edge at
    Beta(1, 1); for each object, increment an edge's alpha when the
    object traversed it, and its beta when the edge's parent was active
    but the edge was not traversed. *)

val observe : t -> edge:int -> fired:bool -> t
(** Single-edge Bayesian update (functional); exposed for incremental /
    streaming training. Thin wrapper over {!observe_many}. *)

val observe_many : t -> (int * bool) list -> t
(** Batched conjugate update: one [(edge, fired)] Bernoulli observation
    per list element, applied with a single copy of the beta array
    (where {!observe} would copy once per event). Raises
    [Invalid_argument] on an out-of-range edge. *)

(** In-place evidence accumulator — the zero-copy hot path behind the
    streaming updater ({!Iflow_stream.Online}). Holds the posterior as
    two raw pseudo-count arrays; [observe] is two array writes. Convert
    back to an immutable model with [freeze] when publishing. *)
module Accum : sig
  type model = t
  type t

  val of_model : model -> t
  (** Copies the model's pseudo-counts; the model is not aliased. *)

  val graph : t -> Iflow_graph.Digraph.t
  val n_edges : t -> int

  val observed : t -> int
  (** Bernoulli observations absorbed since [of_model]. *)

  val observe : t -> edge:int -> fired:bool -> unit

  val decay : t -> lambda:float -> unit
  (** Exponential forgetting for non-stationary streams:
      [(alpha, beta) <- (1 - lambda) * (alpha, beta)] on every edge.
      Scaling both pseudo-counts preserves each posterior mean while
      inflating its variance, so old evidence loses weight without
      biasing the estimate. [lambda = 0] is a no-op; raises
      [Invalid_argument] outside [0, 1). *)

  val grow :
    t -> new_nodes:int ->
    new_edges:(int * int * Iflow_stats.Dist.Beta.t) list -> unit
  (** In-place counterparts of the functional {!Beta_icm.grow} /
      {!Beta_icm.remove_edges}; graph changes are rare events, so these
      rebuild the arrays rather than complicating the observe path. *)

  val remove_edges : t -> (int * int) list -> unit

  val freeze : t -> model
  (** An immutable snapshot; the accumulator remains usable. It checks
      every pseudo-count is positive (the check [Beta.v] makes; decay
      can underflow a count to 0), raising [Invalid_argument]
      otherwise, and copies the two arrays: O(m) time, [2 (m + 1)]
      words and nothing boxed per edge. *)
end

val digest : t -> string
(** FNV-1a fingerprint of the topology and every (alpha, beta) pair —
    the identity used by [.bicm] checkpoint headers. It resumes from the
    graph's {!Iflow_graph.Digraph.fingerprint} and hashes the [16 m]
    bytes of the pseudo-counts, allocating only the hex string. *)

val grow :
  t -> new_nodes:int -> new_edges:(int * int * Iflow_stats.Dist.Beta.t) list -> t
(** Absorb a network change (paper intro: models "should be able to
    absorb network changes efficiently"): append [new_nodes] fresh
    nodes, then add the listed edges with their priors. Existing node
    ids and edge ids are preserved; new edges get the next ids in list
    order. *)

val remove_edges : t -> (int * int) list -> t
(** Drop the listed (src, dst) edges, keeping everything else (including
    accumulated evidence) intact. Unknown pairs are ignored. Edge ids
    above a removed edge shift down. *)

val expected_icm : t -> Icm.t
(** Point ICM with each activation probability set to its posterior
    mean [alpha / (alpha + beta)], bit-identical to {!Iflow_stats.Dist.Beta.mean}.
    One float array is filled and handed to {!Icm.own}, which checks
    it and keeps it without a copy. *)

val sample_icm : Iflow_stats.Rng.t -> t -> Icm.t
(** Draw a point ICM: each edge probability sampled from its beta. *)

val mean_std_icm :
  Iflow_stats.Rng.t -> mean:float array -> std:float array ->
  Iflow_graph.Digraph.t -> Icm.t
(** Draw a point ICM from a per-edge Gaussian approximation (mean, std),
    clipped to [0, 1] — the paper's Fig 10 smoothing device for posteriors
    stored as summary statistics. *)

val pp : Format.formatter -> t -> unit
