(** Point-probability Independent Cascade Models.

    An ICM is a directed graph together with an activation probability
    per edge: when the edge's source node holds an information object,
    the object crosses the edge with that probability, independently of
    everything else (paper Section II). *)

type t

val create : Iflow_graph.Digraph.t -> float array -> t
(** [create g probs] pairs graph [g] with [probs.(e)] as the activation
    probability of edge [e]. Raises [Invalid_argument] when the array
    length differs from the edge count or any probability is outside
    [[0, 1]]. *)

val own : Iflow_graph.Digraph.t -> float array -> t
(** {!create} without the copy: the ICM keeps [probs] itself, so the
    caller must not mutate it afterwards. For builders that fill a
    fresh array, such as {!Beta_icm.expected_icm}. Same checks and
    errors as {!create}. *)

val const : Iflow_graph.Digraph.t -> float -> t
(** Every edge gets the same activation probability. *)

val graph : t -> Iflow_graph.Digraph.t
val prob : t -> int -> float
(** Activation probability of an edge id. *)

val probs : t -> float array
(** A copy of the probability vector. *)

val fires : t -> int -> int -> bool
(** [fires t e (Iflow_stats.Rng.bits53 rng)] tosses edge [e]'s coin:
    the same verdict as [Rng.bernoulli rng (prob t e)] on that draw.
    No float crosses the call, so a loop of tosses allocates nothing. *)

val n_nodes : t -> int
val n_edges : t -> int

val digest : t -> string
(** FNV-1a fingerprint of the topology and edge probabilities — the
    model identity used by the engine's per-query seeds and cache
    (hashed once per {!Iflow_engine.Engine.swap}) and by [.icm] file
    headers. It resumes from the graph's
    {!Iflow_graph.Digraph.fingerprint} and hashes the [8 m] bytes of
    the probabilities, allocating only the hex string. *)

val pp : Format.formatter -> t -> unit
