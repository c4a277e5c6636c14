(** Dynamic reachability: reusable zero-allocation BFS workspaces and
    incrementally maintained per-source reachable sets.

    {!Traverse} allocates a fresh visited array and queue on every call,
    which is fine for one-off queries but dominates the cost of the MH
    sampler's inner loop, where reachability is re-evaluated after every
    accepted single-edge flip. This module provides

    - a {e workspace}: an epoch-stamped visited array plus a
      preallocated int-ring queue, so repeated BFS runs over the same
      graph do no steady-state allocation (reset is a single epoch
      increment); and
    - a {e cache} ({!Cache}): a reachable set from one fixed source,
      maintained incrementally across single-edge activity flips with
      O(1) revert, so a rejected proposal costs nothing.

    A workspace may be shared by any number of sequential operations
    (including every {!Cache} attached to it), but it is single-domain
    scratch: one workspace per chain/domain, never shared across
    domains. Each workspace operation invalidates the marks left by the
    previous one. *)

type workspace

val workspace : int -> workspace
(** [workspace n] is scratch space for BFS over graphs with [n] nodes.
    Raises [Invalid_argument] when [n < 0]. *)

val capacity : workspace -> int

val bfs : workspace -> active:(int -> bool) -> Digraph.t -> src:int -> unit
(** [bfs ws ~active g ~src] marks every node reachable from [src]
    through active edges (the source included). Zero allocation. *)

val bfs_sources :
  workspace -> active:(int -> bool) -> Digraph.t -> int list -> unit
(** Multi-source variant of {!bfs}. *)

val marked : workspace -> int -> bool
(** Was this node reached by the latest [bfs]/[bfs_sources]? *)

val count_marked : workspace -> int
(** Number of marked nodes (O(capacity)). *)

val snapshot : workspace -> bool array
(** The marks as a fresh bool array (allocates; for compatibility with
    {!Traverse.reachable_from} consumers). *)

val reachable_from :
  workspace -> active:(int -> bool) -> Digraph.t -> int list -> bool array
(** [bfs_sources] + [snapshot]: drop-in for {!Traverse.reachable_from}
    that reuses the workspace for the traversal itself. *)

val shortest_path :
  workspace -> active:(int -> bool) -> Digraph.t ->
  src:int -> dst:int -> int list option
(** Drop-in for {!Traverse.shortest_path}: edge ids of a BFS shortest
    path, allocating only the returned list. *)

val cheapest_path :
  workspace -> usable:(int -> bool) -> zero_cost:(int -> bool) ->
  Digraph.t -> src:int -> dst:int -> int list option
(** 0-1 BFS over [usable] edges minimising the number of edges that are
    not [zero_cost] — e.g. a path activating as few new edges as
    possible. Allocates its deque internally; a repair-time routine,
    not a hot-path one. *)

(** An incrementally maintained reachable set from one fixed source.

    The set is stored as an epoch-stamped array together with the BFS
    tree that witnesses it (one parent edge per member). After a single
    edge changes activity, {!Cache.update} re-establishes correctness
    using the cheapest applicable rule:

    - edge activated, its source unreachable: the set cannot change —
      O(1);
    - edge activated, both endpoints already in the set: O(1);
    - edge activated, source in the set, destination outside: the set
      only grows — incremental forward BFS from the destination,
      touching just the newly reached region;
    - edge deactivated, its source outside the set: O(1);
    - edge deactivated, but it is not the BFS-tree parent edge of its
      destination: every member's witness path survives, so the set is
      unchanged — O(1);
    - edge deactivated and it is a tree edge: the only expensive case —
      full recompute from the source, into a double buffer so the
      previous set survives for {!Cache.undo}.

    Every update returns a constant-constructor receipt; {!Cache.undo}
    reverts it in O(changed nodes) (grow) or O(1) (buffer swap), which
    is what makes speculative "flip, check, maybe reject" MH steps
    allocation-free. *)
module Cache : sig
  type t

  val create :
    workspace -> Digraph.t -> source:int -> active:(int -> bool) -> t
  (** A cache over [g]'s node set, initialised by a full BFS. The
      workspace only lends its queue during operations; the set itself
      lives in the cache, so many caches can share one workspace. *)

  val source : t -> int
  val reaches : t -> int -> bool

  val rebuild : t -> active:(int -> bool) -> unit
  (** Recompute from scratch (e.g. after bulk state edits). *)

  type update = Unchanged | Grew | Rebuilt
  (** Receipt describing how the last {!update} changed the set. *)

  val update : t -> active:(int -> bool) -> edge:int -> update
  (** [update c ~active ~edge] repairs the set after exactly [edge]
      changed activity; [active] must reflect the {e post}-flip state.
      At most one update may be pending (i.e. not yet followed by
      another [update], an {!undo}, or a {!rebuild} of the same
      cache). *)

  val undo : t -> update -> unit
  (** Revert the most recent {!update} (the pre-flip activity must be
      restored by the caller; [undo] only restores the set). *)

  type stats = { unchanged : int; grew : int; rebuilt : int; undone : int }
  (** How many {!update}s resolved by each rule, plus non-trivial
      {!undo}s ([Unchanged] undos are free and uncounted), since
      creation. *)

  val stats : t -> stats

  val count : t -> [ `Unchanged | `Grew | `Rebuilt | `Undone ] -> int
  (** One field of {!stats}, read without allocating: the sampler's
      metrics flush reads these once per advance. *)
end
