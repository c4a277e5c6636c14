(** Exact flow evaluation — exponential-time oracles.

    Two methods:

    - {!brute_force_flow} and friends: enumeration of all [2^m]
      pseudo-states (Equation 3 summed per Equations 4/5). This is the
      ground truth the Metropolis-Hastings sampler is validated against.
    - {!flow_probability}: the paper's recursive exclusion-set rewriting
      (Equation 2), which handles cycles by excluding already-visited
      sinks. {b Caveat} (documented in DESIGN.md): Equation 2 multiplies
      one factor per incoming edge as if the flows to different parents
      were independent. When those flows share edges (two parents fed
      through a common bottleneck), they are positively correlated and
      the recursion overestimates the union slightly; the formula is
      exact whenever the parent flows are edge-disjoint (trees, the
      paper's triangle and cycle examples, in-stars). The test suite
      pins both the agreeing and the disagreeing cases. *)

val flow_probability : Icm.t -> src:int -> dst:int -> float
(** [Pr (src ~> dst)] by the paper's recursive exclusion formula,
    memoised on (target, exclusion set). Requires [n_nodes <= 62]
    (exclusion sets are bitmasks). Worst case exponential — small
    graphs only. See the module caveat about shared-edge parent flows:
    this entry point is {e unchecked} and reproduces the paper's
    recursion verbatim, overestimate and all.

    Kept as the paper reproduction and its pinned tests. The typed,
    certified evaluator is [Iflow_plan] (cone extraction, the
    edge-disjointness certificate of DESIGN.md §2h, and scalable
    exclusion sets), which [Engine.query] routes every query through. *)

val brute_force_flow : Icm.t -> src:int -> dst:int -> float
(** Same probability by full pseudo-state enumeration. Requires
    [n_edges <= 24]. *)

val brute_force_conditional :
  Icm.t -> conditions:(int * int * bool) list -> src:int -> dst:int -> float
(** [Pr (src ~> dst | C)] where each condition [(u, v, a)] enforces
    flow [u ~> v] (when [a]) or its absence. Conditions with sources
    other than [src] are supported; all constrained flows are
    single-source flows from their own [u]. Raises [Failure] when the
    conditions have probability 0. *)

val brute_force_community : Icm.t -> src:int -> sinks:int list -> float
(** Probability the object reaches {e every} listed sink — the paper's
    source-to-community flow. *)

val brute_force_impact : Icm.t -> src:int -> float array
(** [impact.(k)] is the probability exactly [k] non-source nodes are
    reached from [src]. *)
