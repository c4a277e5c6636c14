(** Immutable directed graphs in compressed sparse row form.

    Nodes are dense integers [0 .. n_nodes - 1]; edges are dense integers
    [0 .. n_edges - 1] carrying a (source, destination) pair. Both ICMs
    and betaICMs attach per-edge payloads by indexing arrays with the
    edge id, so edge ids are stable and exposed. *)

type t

type edge = { src : int; dst : int }

val of_edges : nodes:int -> (int * int) list -> t
(** [of_edges ~nodes pairs] builds a graph with [nodes] vertices and one
    edge per (src, dst) pair, in list order (edge id = list position).
    Raises [Invalid_argument] on out-of-range endpoints, self loops, or
    duplicate pairs — the ICM has at most one edge per ordered pair. *)

val n_nodes : t -> int

val fingerprint : t -> int64
(** The structure fingerprint: the {!Iflow_stats.Fingerprint} state
    after feeding [n_nodes], [n_edges] and then every edge's source and
    destination in edge-id order, each with
    {!Iflow_stats.Fingerprint.add_int}. {!of_edges} computes it once, so
    reading it is free. Model digests ({!Iflow_core.Icm.digest},
    {!Iflow_core.Beta_icm.digest}) {!Iflow_stats.Fingerprint.resume}
    from it and hash only their per-edge numbers; the digest values are
    the same as hashing the whole structure each time. *)

val n_edges : t -> int
val edge : t -> int -> edge
val edge_src : t -> int -> int
val edge_dst : t -> int -> int

val find_edge : t -> src:int -> dst:int -> int option
(** Edge id for an ordered pair, if present. O(out-degree of src). *)

val mem_edge : t -> src:int -> dst:int -> bool

val out_degree : t -> int -> int
val in_degree : t -> int -> int

val out_edge : t -> int -> int -> int
(** [out_edge g v k] is the id of [v]'s [k]-th out-edge,
    [0 <= k < out_degree g v], in {!iter_out} order. A loop over it
    needs no closure, so it allocates nothing. *)

val iter_out : t -> int -> (int -> unit) -> unit
(** [iter_out g v f] applies [f] to the id of every edge leaving [v]. *)

val iter_in : t -> int -> (int -> unit) -> unit
(** [iter_in g v f] applies [f] to the id of every edge entering [v]. *)

val fold_out : t -> int -> init:'a -> f:('a -> int -> 'a) -> 'a
val fold_in : t -> int -> init:'a -> f:('a -> int -> 'a) -> 'a

val out_edges : t -> int -> int list
val in_edges : t -> int -> int list

val in_neighbours : t -> int -> int list
val out_neighbours : t -> int -> int list

val edges : t -> (int * int) list
(** All edges as (src, dst) pairs in edge-id order. *)

val iter_edges : t -> (int -> edge -> unit) -> unit

val induced : t -> keep:bool array -> t * int array * int array
(** [induced g ~keep] is the subgraph on the kept nodes. Returns
    [(sub, node_of_sub, edge_of_sub)] where [node_of_sub.(v')] is the
    original id of sub-node [v'] and [edge_of_sub.(e')] the original id
    of sub-edge [e']. *)

val pp : Format.formatter -> t -> unit
