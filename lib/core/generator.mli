(** Synthetic model generators matching the paper's experimental setups. *)

val default_beta_icm : Iflow_stats.Rng.t -> nodes:int -> edges:int -> Beta_icm.t
(** The paper's synthetic betaICM generator (Section IV-A): a uniform
    G(n, m) structure, each edge given Beta(a, b) with a, b ~ U(1, 20). *)

val skewed_ground_truth : Iflow_stats.Rng.t -> Iflow_graph.Digraph.t -> Icm.t
(** Ground-truth activation probabilities for Section V-C: 90% of edges
    drawn from Beta(16, 4) (mean 0.8, narrow), 10% from Beta(2, 8)
    (mean 0.2, wide). *)

val retweet_ground_truth : Iflow_stats.Rng.t -> Iflow_graph.Digraph.t -> Icm.t
(** Realistic retweet probabilities for the Twitter substrate: mostly
    low (90% from Beta(2, 12), mean ~0.14) with a minority of strong
    ties (10% from Beta(4, 6), mean 0.4). Real retweet rates are small —
    which is also why the paper sees almost no retweet chains longer
    than three users. *)

val in_star_icm : probs:float array -> Iflow_graph.Digraph.t * Icm.t * int
(** The Fig 7 fragment: one sink with [Array.length probs] parents, edge
    [i] carrying [probs.(i)]. Returns (graph, icm, sink). Parents are
    nodes [0 .. d-1]; the sink is node [d]. *)
