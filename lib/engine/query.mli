(** Flow queries as first-class values.

    A query names an event over pseudo-states — end-to-end flow,
    source-to-community flow, or a conjunction of flows — plus optional
    flow conditions (paper Section III). Queries are pure data: the
    engine turns them into indicator functions, cache keys, and derived
    per-query seeds. Construction canonicalises set-like payloads
    (sorts sinks, flows, and conditions), so two queries that mean the
    same thing compare equal and share a cache entry. *)

type kind =
  | Flow of { src : int; dst : int }
  | Community of { src : int; sinks : int list }
  | Joint of { flows : (int * int) list }

type t

val v : ?conditions:(int * int * bool) list -> kind -> t
(** Raises [Invalid_argument] on negative node ids, empty sink / flow
    lists, and conditions {!Iflow_mcmc.Conditions.v} refuses
    (contradictory or self-negative). *)

val flow : ?conditions:(int * int * bool) list -> src:int -> dst:int -> unit -> t
val community :
  ?conditions:(int * int * bool) list -> src:int -> sinks:int list -> unit -> t
val joint :
  ?conditions:(int * int * bool) list -> flows:(int * int) list -> unit -> t

val kind : t -> kind
val conditions : t -> (int * int * bool) list

val targets : t -> (int * int) list
(** The (source, sink) pairs whose flow the query asks about: one for
    a flow, one per sink for a community, every pair of a joint. *)

val max_node : t -> int
(** Largest node id the query mentions (for model-bounds validation). *)

val indicator_ws :
  Iflow_graph.Reach.workspace ->
  Iflow_core.Icm.t -> t -> Iflow_core.Pseudo_state.t -> bool
(** Does this pseudo-state realise the queried event? (Conditions are
    {e not} checked here — the sampler conditions the chain itself.)
    Evaluated through a reusable BFS workspace, as the engine's
    per-chain sample loops do, so evaluating a query over thousands of
    retained samples does no per-sample allocation. *)

val draw : Iflow_core.Forward.t -> Iflow_stats.Rng.t -> t -> bool
(** The queried event on one fresh, independent pseudo-state, read off
    lazy forward cascades ({!Iflow_core.Forward}). An exact draw only
    for a query without conditions, which this does not check. A
    joint's flows share the state's coins and stop at the first flow
    that fails. Allocates nothing. *)

val key : t -> string
(** Canonical textual form; equal queries have equal keys. Used in
    cache keys and derived seeds, and as the human-readable rendering. *)

val equal : t -> t -> bool

val pp : Format.formatter -> t -> unit

val of_json : Jsonl.value -> (t, string) result
(** Decode the batch wire format:
    {v
    {"type":"flow","src":0,"dst":5}
    {"type":"community","src":0,"sinks":[3,4]}
    {"type":"joint","flows":[[0,3],[1,4]]}
    v}
    Any form takes an optional ["conditions"] field, a list of
    [[src, dst, sign]] with sign [true]/[false] or ["+"]/["-"]. *)

val of_line : ?lineno:int -> string -> (t, string) result
(** [of_json] composed with {!Jsonl.parse} — one JSONL line. Parse
    errors carry the byte offset of the damage within the line; when
    [lineno] is given, errors are prefixed with ["line N: "] so a
    quarantine report traces straight back to the offending input
    line. *)
