(** Refusals without a trace: up to three vertex-disjoint cycles of a
    model, each with a forward and a reverse dominator tree rooted at
    one of its nodes.

    A cycle [C] over live edges (probability > 0) catches a target
    [(src, dst)] when [C] holds neither endpoint, [src] reaches [C]
    along a path that avoids [dst] (in the reverse tree, [dst] does not
    dominate [src]), and [C] reaches [dst] along a path that avoids
    [src] (in the forward tree, [src] does not dominate [dst]). [C] then
    lies in the trimmed cone, and the node where the path to [dst]
    leaves [C] has two live out-edges into it, so {!Cone.trace} with
    [~certify:true] would return [Fork]: every target the index catches
    is one the trace refuses (DESIGN.md §2h). A check is O(1) per cycle
    and allocates nothing.

    A value is immutable once built, so domains can share it. *)

type t

val create : Iflow_core.Icm.t -> t
(** The model's live adjacency and the first cycle with its two trees
    (Semi-NCA): O((nodes + edges) log nodes) at worst, linear in
    practice. The first cycle is a shortest one through the node with
    the highest live in-degree times out-degree, a hub of the giant
    strongly connected component when there is one. A model without a
    cycle gives an index that catches nothing and is {!complete}. *)

val extend : t -> t
(** A new index with one more cycle, vertex-disjoint from the others,
    through the best remaining root, or the same index when it is
    {!complete}. When eight roots in a row lie on no such cycle, the
    index becomes complete instead. *)

val complete : t -> bool
(** No further cycle will be added: three are built, or no candidate
    root is left. *)

val icm : t -> Iflow_core.Icm.t
(** The model the index was built on. *)

val cycles : t -> int

val refusal : t -> src:int -> dst:int -> int
(** A node of the first cycle that catches [(src, dst)], or [-1] when
    none does. Requires [src <> dst], both in range. *)
