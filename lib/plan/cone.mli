(** Trimmed reachability cones: the part of the model a flow event
    depends on, traced and certified in one linear pass.

    The cone of [(src, dst)] is every node on a walk [src ⇝ dst] over
    positive-probability edges that neither re-enters [src] nor leaves
    [dst]; its edges are the live edges between cone nodes, minus the
    edges into [src] and out of [dst]. No simple [src -> dst] path uses
    a dropped edge, so the flow event is a function of the cone's edge
    coins alone and restricting to the cone is exact.

    A cone is {e certified} when every node other than [src] and [dst]
    has exactly one cone out-edge. The cone is then acyclic, an in-tree
    toward [dst] plus [src]'s own fan-out, and the ancestor sets of a
    join's parents meet only at [src]: the parent flows ride on
    disjoint, independent edge coins, so the paper's Eq. 2 product form
    is exact there (DESIGN.md §2h). *)

type t
(** Scratch for tracing cones of one model: per-node stamps and two
    BFS queues, reused across traces. Single-domain. *)

val create : Iflow_core.Icm.t -> t

type verdict =
  | Unreachable
      (** [dst] is unreachable from [src] through edges that can fire:
          the flow probability is exactly 0. *)
  | Fork of { node : int }
      (** With [~certify:true]: this model node, neither [src] nor
          [dst], has two cone out-edges. Its flow reaches [dst] along
          two routes that meet again, so Eq. 2 would overestimate. *)
  | Traced of { nodes : int; edges : int }
      (** The cone's node and live edge counts. With [~certify:true]
          the cone is certified. *)

val trace : t -> certify:bool -> src:int -> dst:int -> verdict
(** One reverse BFS from [dst] (never expanding [src]'s in-edges), then
    one forward BFS from [src] restricted to its marks (never expanding
    [dst]'s out-edges). With [~certify:true] the forward pass stops at
    the first fork. Raises [Invalid_argument] on out-of-range nodes or
    [src = dst] (a trivial flow has no cone — callers special-case it
    to probability 1). The traced cone stays readable through
    {!iter_edges} and {!flow} until the next [trace]. *)

val iter_edges : t -> (int -> unit) -> unit
(** The model edge ids of the latest [Traced] cone. *)

val flow : t -> float * int list option
(** [Pr[src ⇝ dst]] on the latest cone, which must have been traced
    [Traced] with [~certify:true]. A path cone gives the product of its
    edge probabilities, dst first, and the path's model node ids, src
    first. Any other certified cone gives Eq. 2's per-node
    [1 − Π (1 − Pr[src ⇝ l]·p_e)] over live in-edges in
    {!Iflow_graph.Digraph.iter_in} order, in one sweep. Deterministic:
    equal cones give bit-equal probabilities. *)

val work : t -> int
(** Edge visits by every {!trace} and {!flow} on this scratch so far. *)
