(** A fixed-size pool of OCaml 5 domains for running independent tasks.

    [run] is fork–join: tasks are struck round-robin across at most
    [size] domains (one of which is the calling domain) and results are
    returned in task order. Task assignment is a pure function of the
    task index, never of timing, so any state a task owns (chain, RNG)
    is touched by exactly one domain per [run], and results are
    bit-for-bit identical whatever the pool size — parallelism changes
    wall-clock only.

    Domains are spawned per [run] call. OCaml domains are cheap
    (hundreds of microseconds) relative to the MH rounds they carry
    here; a persistent worker pool would buy little and cost a
    shutdown protocol. Forward-cascade rounds are too short for that:
    the sampling phase of an unconditioned query (2 streams of 100
    cascades on the 6,000-node synthetic model, 2 vCPUs) had a p50 of
    410–520 µs on the calling domain against 510–650 µs spread over 2
    domains, so the engine runs cascade streams through a size-1 pool,
    in order on the caller's domain. *)

type t

val create : ?size:int -> unit -> t
(** Default size is [Domain.recommended_domain_count ()]. Raises
    [Invalid_argument] when [size < 1]. *)

val size : t -> int

val run : t -> ('a -> 'b) -> 'a array -> 'b array
(** [run t f tasks] applies [f] to every task, in parallel across the
    pool, and returns results in task order. If any task raises, the
    first (lowest-index) exception is re-raised after all domains have
    been joined — no domain is leaked. *)

val run_results : t -> ('a -> 'b) -> 'a array -> ('b, exn) result array
(** Like {!run}, but a raising task yields [Error exn] in its slot
    instead of failing the whole run — both on the calling domain and on
    spawned workers. A task failure never tears down a domain mid-run:
    every task is still attempted, and callers decide whether partial
    results are enough. *)
