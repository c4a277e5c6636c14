(** Forward simulation of the Independent Cascade Model.

    A cascade starts with the source nodes active at step 0; whenever a
    node is active, each of its out-edges fires independently with its
    activation probability, activating the destination node (paper
    Section II). Each edge's coin is tossed at most once per object. *)

val run :
  Iflow_stats.Rng.t -> Icm.t -> sources:int list -> Evidence.attributed_object
(** Simulate one object. The returned record contains exactly the
    attributed evidence the paper trains betaICMs from: sources, active
    nodes, and active (traversed) edges — including fired edges into
    nodes that were already active, which still count as [i]-active. *)

val run_trace :
  Iflow_stats.Rng.t -> Icm.t -> sources:int list -> Evidence.trace
(** Simulate and keep only activation times (BFS steps) — ground-truth
    generation for the unattributed-learning experiments. *)

val run_contextual :
  Iflow_stats.Rng.t -> source_icm:Icm.t -> relay_icm:Icm.t ->
  sources:int list -> Evidence.attributed_object
(** Context-dependent dynamics (the paper's Discussion extension): an
    edge leaving one of the object's {e source} nodes fires with its
    [source_icm] probability, every other edge with its [relay_icm]
    probability — users forward fresh originals differently from
    relayed copies. The two ICMs must share a graph. *)

val reached_count : Evidence.attributed_object -> int
(** Number of active non-source nodes — the "impact" of the object
    (paper Fig 4 counts retweeting users this way). *)
