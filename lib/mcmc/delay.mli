(** Edge latency — the extension sketched in the paper's Discussion:
    "assigning a delay distribution to each edge, and sample from these
    distributions for each sample from the posterior, i.e., assigning a
    weight to each edge that represents a time, and running a shortest
    path algorithm."

    For each retained pseudo-state of the Metropolis-Hastings chain, we
    draw a delay for every active edge and compute the earliest arrival
    time from source to sink over the active subgraph (Dijkstra). The
    result is a sample of the {i time-to-flow} distribution, including
    its defective mass (the probability the flow never happens). *)

type dist =
  | Constant of float
  | Uniform of float * float
  | Exponential of float (** mean *)
  | Gamma of { shape : float; scale : float }

val sample_dist : Iflow_stats.Rng.t -> dist -> float
(** Non-negative delay sample. Raises [Invalid_argument] on
    non-positive parameters. *)

type t

val uniform_delay : Iflow_core.Icm.t -> dist -> t
(** The same distribution on every edge. *)

type arrival_sample = {
  reached : int; (** retained samples in which the flow existed *)
  missed : int; (** retained samples with no flow *)
  times : float array; (** arrival time for each reaching sample *)
}

val arrival_samples :
  ?conditions:Conditions.t ->
  Iflow_stats.Rng.t -> t -> Estimator.config -> src:int -> dst:int ->
  arrival_sample

val probability_within :
  ?conditions:Conditions.t ->
  Iflow_stats.Rng.t -> t -> Estimator.config -> src:int -> dst:int ->
  deadline:float -> float
(** [Pr (src ~> dst within deadline)] — flow probability weighted by the
    latency race, the risk-aware quantity a response team cares about. *)

val earliest_arrival :
  Iflow_core.Icm.t -> active:(int -> bool) -> delay:(int -> float) ->
  src:int -> dst:int -> float option
(** Dijkstra over the active edges with the given per-edge delays;
    [None] when [dst] is unreachable. Exposed for tests. *)
