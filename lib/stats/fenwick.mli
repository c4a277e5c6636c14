(** Fenwick (binary indexed) tree over non-negative weights, supporting
    O(log n) point update, prefix sum, and weighted index sampling.

    This is the "search tree" the paper uses to draw the
    Metropolis-Hastings edge-flip proposal and maintain its normalising
    constant in O(log m) per step. *)

type t

val create : int -> t
(** [create n] is a tree over indices [0 .. n-1], all weights 0. *)

val of_array : float array -> t
(** Build in O(n). Weights must be non-negative. *)

val get : t -> int -> float
(** Current weight at an index, O(1). *)

val set : t -> int -> float -> unit
(** [set t i w] replaces the weight at [i] with [w >= 0], O(log n). *)

val total : t -> float
(** Sum of all weights. Maintained incrementally; see {!rebuild}. *)

val prefix_sum : t -> int -> float
(** [prefix_sum t i] is the sum of weights at indices [< i], O(log n). *)

val find_prefix : t -> float -> int
(** [find_prefix t u] for [0 <= u < total t] is the smallest index [i]
    such that the running sum through [i] exceeds [u] — i.e. an index
    drawn proportionally to its weight when [u] is uniform. O(log n). *)

val sample : Rng.t -> t -> int
(** [sample rng t] draws an index with probability proportional to its
    weight. Raises [Invalid_argument] when [total t = 0]. *)

val complement : t -> int -> unit
(** [complement t i] replaces the weight [w] at [i] by [1 - w], O(log n).
    For weights in [[0, 1]], the probabilities of the two values of a
    binary variable. *)

val propose_complement : Rng.t -> t -> int
(** One Metropolis-Hastings proposal over complementary weights: draws
    [i] as {!sample} does, then accepts it when a further
    {!Rng.uniform} draw is [<= min (Z / Z', 1)], where [Z] is the total
    and [Z' = Z + 1 - 2 w_i] the total after {!complement}[ t i].
    Returns [i] if accepted and [-1] if rejected or [Z = 0]. It does
    not change the tree, and allocates nothing. O(log n). *)

val rebuild : t -> unit
(** Recompute all internal sums from the stored exact weights, clearing
    any floating-point drift accumulated by incremental updates. The MH
    chain calls this periodically. *)
