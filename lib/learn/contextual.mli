(** Context-dependent activation probabilities — the first extension in
    the paper's Discussion: "using different retweet distributions when
    not quoting the originating user".

    Here the context of an edge activation is whether the parent held
    the {i original} object (it was a source) or a relayed copy. Each
    edge carries two Beta posteriors, trained with the paper's counting
    rule applied per context; the paper's own radius-1 results suggest
    originals are forwarded more readily, which this model captures and
    the plain betaICM averages away. *)

type context = From_source | From_relay

type t

val train : Iflow_graph.Digraph.t -> Iflow_core.Evidence.attributed -> t
(** For each object and each edge whose parent was active: the trial is
    assigned to [From_source] when the parent is one of the object's
    sources, [From_relay] otherwise; alpha increments when the edge was
    active, beta otherwise — exactly the attributed rule, split by
    context. *)

val edge_beta : t -> context -> int -> Iflow_stats.Dist.Beta.t

val pooled : t -> Iflow_core.Beta_icm.t
(** Contexts merged back together — identical to
    [Beta_icm.train_attributed] on the same evidence (tested). *)

val context_gap : t -> int -> float
(** [mean from_source - mean from_relay] for an edge: positive when the
    user forwards originals more readily than relays. *)
