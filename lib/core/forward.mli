(** Exact draws of flow indicators by lazy forward cascades.

    Without flow conditions the pseudo-state distribution (paper
    Equation 3) is a product of independent edge coins, so the flow
    indicators of one fresh pseudo-state can be read off a forward
    cascade from the source that tosses each coin only when the
    cascade first needs it: an edge into a node already reached is
    never tossed, and the cascade stops once its targets are reached.
    Each draw is an exact, independent sample; no chain, burn-in or
    thinning is involved.

    A value is single-domain scratch for one model at a time:
    epoch-stamped node marks and goals, a queue, and epoch-stamped
    coins. The coins make several sweeps after one {!fresh} read one
    pseudo-state, which is what a conjunction of flows needs. After the
    first draw nothing allocates: a coin is tossed by {!Icm.fires} on an
    integer draw, so no float crosses a call. Each domain keeps one
    value across queries and models ({!take}, {!put}), so a draw on a
    warm domain allocates nothing either. *)

type t

val create : Icm.t -> t
(** Scratch for cascades over this model: O(nodes + edges) words. *)

val take : Icm.t -> t
(** The calling domain's scratch, rebound to this model, when one with
    the same node and edge counts was put back; otherwise a new one.
    Either way it starts a new pseudo-state. Rebinding clears nothing,
    so a draw on a taken scratch reads exactly as on a new one. *)

val put : t -> unit
(** Hand a scratch from {!take} back to the calling domain's slot, for
    the next {!take} there. A scratch that is never put back is only
    garbage: the next {!take} builds another. *)

val fresh : t -> unit
(** Start a new pseudo-state: every coin reads as untossed again. *)

val flow : t -> Iflow_stats.Rng.t -> src:int -> dst:int -> bool
(** Does the current pseudo-state carry flow [src ~> dst]? Tosses the
    coins this sweep needs that are not yet tossed, from the generator,
    and stops at [dst]. *)

val community : t -> Iflow_stats.Rng.t -> src:int -> sinks:int list -> bool
(** Does the current pseudo-state carry flow from [src] to every sink?
    Stops once the last sink is reached. *)
