(** Pseudo-states: one boolean per edge, assigning it active or inactive
    irrespective of its parent node's activity (paper Section III-A).

    Pseudo-states are what the Metropolis-Hastings chain walks over;
    given a set of source nodes, the active state (which nodes hold the
    object) is derived by reachability through active edges. *)

type t

val create : int -> t
(** All-inactive state over the given number of edges. *)

val n_edges : t -> int
val get : t -> int -> bool
val set : t -> int -> bool -> unit
val flip : t -> int -> unit
val copy : t -> t
val count_active : t -> int
val active_list : t -> int list

val equal : t -> t -> bool

val sample : Iflow_stats.Rng.t -> Icm.t -> t
(** Independent Bernoulli draw per edge with the ICM's activation
    probabilities — a direct sample from the paper's Equation (3). *)

val log_prob : Icm.t -> t -> float
(** [ln Pr(x | M)] per Equation (3). [neg_infinity] when the state sets
    an edge of probability 0 active (or probability 1 inactive). *)

val reachable : Icm.t -> t -> sources:int list -> bool array
(** Derived active nodes: sources plus everything reachable through
    active edges. *)

val flow : Icm.t -> t -> src:int -> dst:int -> bool
(** Does the pseudo-state carry flow [src ~> dst]? *)

val reachable_ws :
  Iflow_graph.Reach.workspace -> Icm.t -> t -> sources:int list -> unit
(** Allocation-free {!reachable}: marks the derived active nodes in the
    workspace instead of returning an array; query them with
    {!Iflow_graph.Reach.marked}. The marks are invalidated by the next
    operation on the same workspace. *)

val flow_ws :
  Iflow_graph.Reach.workspace -> Icm.t -> t -> src:int -> dst:int -> bool
(** Allocation-free {!flow}, reusing the workspace's scratch BFS. *)

val derive_active_edges : Icm.t -> t -> sources:int list -> bool array
(** The edges that are active *and* have an active parent — the edge set
    of the active state this pseudo-state gives rise to. *)

val pp : Format.formatter -> t -> unit
