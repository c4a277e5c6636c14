(** The metrics registry: counters, gauges and log-scaled histograms,
    recorded from any number of OCaml 5 domains and merged on scrape.

    {b Sharding.} Counter and histogram cells are split across a small
    fixed array of shards indexed by [Domain.self () land mask], so the
    server's serving domains record without cache-line ping-pong on a
    single cell; each shard is an [Atomic.t], so a scrape (or a merge
    after [Domain.join]) reads exact totals. Gauges are last-writer-
    wins single cells — they carry instantaneous readings (R-hat at
    stop, flagged-edge count), not accumulations.

    {b Always on.} Every record operation records: there is no switch,
    so [/metrics], [/healthz] and [--metrics-out] all read the same
    counters whatever flags the process started with. Metric handles
    are created at module-initialisation time and sprinkled through hot
    paths; a counter bump is one atomic add on the caller's shard, a
    gauge write one unboxed store. Instrumented code never changes
    {e what} it computes — estimates are bit-for-bit identical with a
    trace sink and the flight recorder on or off (regression-tested in
    [test_obs]).

    {b Histograms} take non-negative integer observations (by
    convention nanoseconds for timings) into fixed power-of-two buckets
    — bucket [i] holds values in [[2^i, 2^(i+1))] — so histograms from
    different shards, runs or processes merge by bucket-wise addition.
    [scale] (e.g. 1e-9 for ns → s) is applied by exporters only; the
    stored values stay integral. *)

type registry

val default : registry
(** The process-wide registry every built-in instrumentation point
    records into. *)

val create_registry : unit -> registry
(** A private registry (tests, embedding). *)

(** {1 Counters} — monotonically increasing integers. *)

type counter

val counter :
  ?registry:registry -> ?labels:(string * string) list -> ?help:string ->
  string -> counter
(** [counter name] registers (or returns the already-registered)
    counter under [name] + [labels]. Raises [Invalid_argument] on a
    malformed name or label, or when [name]+[labels] is already
    registered as a different metric kind. *)

val inc : counter -> unit
val add : counter -> int -> unit
(** [add] ignores negative amounts. *)

val counter_value : counter -> int
(** Sum over shards. *)

(** {1 Gauges} — instantaneous float readings. *)

type gauge

val gauge :
  ?registry:registry -> ?labels:(string * string) list -> ?help:string ->
  string -> gauge

val set : gauge -> float -> unit

val set_ratio : gauge -> int -> int -> unit
(** [set_ratio g num den] sets [g] to [num / den] (0 when [den = 0]).
    Its arguments are ints, so the call allocates nothing: the MH
    chain sets its acceptance rate this way once per advance. *)

(** {1 Histograms} *)

type histogram

val histogram :
  ?registry:registry -> ?labels:(string * string) list -> ?help:string ->
  ?scale:float -> string -> histogram
(** [scale] (default 1.0) multiplies bucket edges and sums at export
    time — use 1e-9 for histograms observed in nanoseconds so the
    Prometheus exposition speaks seconds. *)

val observe : histogram -> int -> unit
(** Record one observation (clamped to 0 from below). *)

val histogram_count : histogram -> int
val histogram_sum : histogram -> int
(** Raw (unscaled) observation count and sum, merged over shards. *)

val quantile : histogram -> float -> float
(** [quantile h q] for [q] in [(0, 1]]: the upper edge (raw units) of
    the bucket containing the [ceil (q * count)]-th smallest
    observation — an upper bound on the true quantile that is tight to
    within the bucket's factor-of-two resolution. [nan] when empty. *)

(** {1 Scrape} *)

type snapshot_value =
  | Counter_v of int
  | Gauge_v of float
  | Histogram_v of {
      scale : float;
      sum : int;
      buckets : (float * int) array;
          (** (raw upper edge, {e cumulative} count), ending with
              [(infinity, total)]; empty-tail buckets trimmed. *)
    }

type sample = {
  sample_name : string;
  sample_labels : (string * string) list;
  sample_help : string;
  sample_value : snapshot_value;
}

val snapshot : registry -> sample list
(** All registered metrics in registration order, with shard-merged
    values. *)

val to_json_string : registry -> string
(** The snapshot as a JSON document:
    [{"metrics": [{name, labels, type, ...}]}], with
    histogram buckets as per-bucket (non-cumulative) counts over raw
    upper edges. *)
