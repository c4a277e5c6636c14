(** Flow conditions: constraints on which end-to-end flows exist
    (paper Section III, "constrained flow" tuples (u, v, a)).

    Conditioning the Metropolis-Hastings chain on a set of conditions
    samples pseudo-states from [Pr (x | M, C)] (Equation 6); the chain
    only ever moves between states whose combined indicator
    [I(x, C) = 1] (Equation 7). *)

type t

val empty : t

val v : (int * int * bool) list -> t
(** [(u, v, required)] — when [required], flow [u ~> v] must exist;
    otherwise it must not. Raises [Invalid_argument] on a directly
    contradictory pair, and on [(u, u, false)], which no state meets
    because a source always holds its own object. Conditions are stored grouped by source (stable
    within a source), so indicator checks do one reachability sweep per
    distinct source. *)

val is_empty : t -> bool
val to_list : t -> (int * int * bool) list
val length : t -> int

val sources : t -> int list
(** Distinct condition sources (reachability is computed once per
    source when checking the indicator). *)

val satisfied : Iflow_core.Icm.t -> Iflow_core.Pseudo_state.t -> t -> bool
(** The combined indicator I(x, C): {!satisfied_ws} over a workspace it
    creates. *)

val satisfied_ws :
  Iflow_graph.Reach.workspace ->
  Iflow_core.Icm.t -> Iflow_core.Pseudo_state.t -> t -> bool
(** Allocation-free {!satisfied}: one workspace BFS per distinct
    condition source (conditions are kept grouped by source). *)

val initial_state :
  Iflow_stats.Rng.t -> Iflow_core.Icm.t -> t ->
  Iflow_core.Pseudo_state.t option
(** A pseudo-state with positive probability under the model that
    satisfies the conditions. It draws one state from the marginal and
    keeps it if it satisfies them: without conditions, or when the draw
    meets them, it is an exact draw. Otherwise it greedily repairs that
    draw: it activates the path needing the fewest new edge activations
    for each unmet positive condition, and cuts paths for each violated
    negative one, over a few bounded rounds. It never activates a p = 0
    edge or cuts a p = 1 edge. Only a failed repair draws again.
    [None] when no satisfying state was found, e.g. a positive
    condition between disconnected nodes. *)

val pp : Format.formatter -> t -> unit
