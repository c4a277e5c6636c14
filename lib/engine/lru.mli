(** A mutable LRU cache with hit / miss / eviction counters.

    Hashtbl for lookup plus an intrusive doubly-linked recency list, so
    [find], [add], and eviction are all O(1). Keys use polymorphic
    hashing — the engine keys entries by query strings. A capacity of
    0 disables caching ([add] is a no-op) while still counting misses,
    which keeps the instrumented code path uniform.

    Not thread-safe: the engine only touches the cache from the
    coordinating domain. *)

type ('k, 'v) t

type stats = { hits : int; misses : int; evictions : int; entries : int }

val create : ?on_evict:(unit -> unit) -> int -> ('k, 'v) t
(** [create capacity]. Raises [Invalid_argument] when negative.
    [on_evict] (default [ignore]) runs once per eviction, where the
    eviction counter moves — the engine counts its registry metric
    there. *)

val length : ('k, 'v) t -> int

val find : ('k, 'v) t -> 'k -> 'v option
(** Counts a hit (and refreshes recency) or a miss. *)

val mem : ('k, 'v) t -> 'k -> bool
(** Pure lookup: no counter or recency update. *)

val add : ('k, 'v) t -> 'k -> 'v -> unit
(** Insert or overwrite, making the entry most-recent; evicts the
    least-recently-used entry when full. *)

val clear : ('k, 'v) t -> int
(** Drop every entry, returning how many were dropped. Each drop counts
    as an eviction (and runs [on_evict]) — this is how the engine
    retires a model version's answers on hot-swap. *)

val stats : ('k, 'v) t -> stats

val pp_stats : Format.formatter -> stats -> unit
