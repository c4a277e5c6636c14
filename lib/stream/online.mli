(** The online betaICM updater: applies decoded {!Event}s to an
    in-place {!Iflow_core.Beta_icm.Accum} accumulator, quarantining
    anything malformed or inconsistent (count, don't crash).

    {b Update rules.}
    - [attributed]: exactly the batch rule of
      {!Iflow_core.Beta_icm.train_attributed} — for every edge, a
      traversed edge counts one success, an untraversed edge whose
      source node was active counts one failure. Replaying a log of
      attributed events therefore reproduces batch training bit for
      bit (integer pseudo-counts add associatively in floats).
    - [trace]: the naive frequency rule over activation times — for an
      edge (u, v) with u active at time [t]: v active at [t + 1] counts
      a success (u is a candidate parent); v never active, or active
      only later than [t + 1], counts a failure (u's attempt provably
      missed); v active at or before [t] carries no information. This
      is deliberately the cheap streaming counterpart of the paper's
      (batch, expensive) joint-Bayes unattributed method.
    - graph changes: routed to {!Iflow_core.Beta_icm.Accum.grow} /
      [remove_edges]; accumulated evidence on surviving edges is kept.
      A graph change re-anchors the drift detector (edge ids shift).

    {b Quarantine.} An event is quarantined — counted, never applied,
    never fatal — when it references unknown nodes or edges (an edge
    pair with an out-of-range endpoint is an unknown edge), fails
    {!Iflow_core.Evidence.attributed_object_is_consistent} /
    [trace_is_consistent], or (via {!apply_line} / {!apply_record})
    does not decode. Checks run in that order — range, unknown edge,
    consistency — and the first failure names the reason.

    {b Cost.} The checks and the counting run on an epoch-stamped
    workspace sized to the graph (reallocated only on graph changes),
    so applying an evidence event costs O(event size plus the out-degrees
    of its active nodes), never O(n + m). *)

type stats = {
  applied : int;        (** events absorbed into the model *)
  observations : int;   (** Bernoulli edge updates they produced *)
  graph_changes : int;  (** applied add/remove events *)
  parse_errors : int;   (** lines that failed to decode *)
  inconsistent : int;   (** evidence failing the consistency checks *)
  unknown_refs : int;   (** events naming nodes/edges not in the graph *)
}

val quarantined : stats -> int
(** [parse_errors + inconsistent + unknown_refs]. *)

type t

val create : ?forget:float -> ?drift:Drift.config -> Iflow_core.Beta_icm.t -> t
(** Start from a model (typically {!Iflow_core.Beta_icm.uninformed} or
    a loaded checkpoint). [forget] is the per-{!decay} forgetting factor
    lambda in [0, 1) (default 0, off); [drift] enables the detector.
    Raises [Invalid_argument] on a bad lambda. *)

val apply : t -> Event.t -> [ `Applied | `Quarantined of string ]

val apply_line : ?lineno:int -> t -> string -> [ `Applied | `Quarantined of string ]
(** Decode then {!apply}; a parse failure is quarantined like any other
    bad event. Quarantine reasons carry the byte offset of malformed
    JSON, and the ["line N: "] prefix when [lineno] is given (the
    {!Runner} threads its running line count through here). *)

val apply_record :
  t -> (Event.t, Binlog.error) result -> [ `Applied | `Quarantined of string ]
(** {!apply} for one decoded binary-log record ({!Binlog.Reader.next}).
    A decode error counts as a [parse_errors] quarantine under its
    [bad_crc] / [truncated] / [bad_varint] / [unknown_tag] label of
    [iflow_stream_quarantined_total], with {!Binlog.error_message} as
    the reason. *)

val decay : t -> unit
(** Apply one step of exponential forgetting,
    [(alpha, beta) <- (1 - lambda) * (alpha, beta)] — the {!Runner}
    calls this once per published batch. No-op when [forget] is 0. *)

val model : t -> Iflow_core.Beta_icm.t
(** Freeze the accumulator into an immutable model (the accumulator
    keeps absorbing). *)

val drift : t -> Drift.t option
val stats : t -> stats

val pp_stats : Format.formatter -> stats -> unit
