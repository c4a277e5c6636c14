(** The binary event log: a compact, CRC-framed, segmented encoding of
    {!Event} streams for high-rate ingest.

    The JSONL log is the auditable source of truth; this codec is its
    fast twin — {!Writer}/{!Reader} round-trip every event exactly
    (`infoflow convert` transcodes in either direction), and replaying
    either encoding of the same stream produces bit-identical
    posteriors (pinned by the cross-codec tests).

    {b On-disk format} (DESIGN.md §2g). A log is a chain of segments:
    [path], [path.1], [path.2], ... Each segment starts with a 28-byte
    self-describing header

    {v
      bytes 0..3    magic "IBL1"
      byte  4       format version (1)
      bytes 5..7    zero padding
      bytes 8..15   segment index, u64 LE
      bytes 16..23  base event offset, u64 LE (events in prior segments)
      bytes 24..27  CRC-32 of bytes 0..23, u32 LE
    v}

    followed by frames, back to back:

    {v [payload length: varint] [payload] [CRC-32 of payload: u32 LE] v}

    A payload is one tag byte (1 attributed, 2 trace, 3 add_nodes,
    4 add_edges, 5 remove_edges) followed by the event body as unsigned
    LEB128 varints in original list order (lists are length-prefixed;
    edges travel as (src, dst) node pairs so the log is self-contained;
    [add_edges] priors are two f64 LE). Unknown {e tags} are a
    quarantinable record error; unknown {e versions} and damaged
    headers are structural ({!Corrupt}) — a reader that does not
    understand the segment must refuse it loudly rather than guess.

    {b Corruption policy.} Record-level damage never kills a read: a
    bad payload CRC quarantines that one record (framing was intact, so
    the reader resyncs at the next frame); a truncated or unframeable
    record quarantines once and skips to the next segment boundary.
    Every {!error} carries the segment path and byte offset. *)

type reason =
  | Bad_crc      (** payload CRC-32 mismatch — the frame was readable *)
  | Truncated    (** record runs past the end of its segment/payload *)
  | Bad_varint   (** malformed varint, implausible length, bad value *)
  | Unknown_tag  (** well-formed record of an unknown event kind *)

type error = {
  segment : string;  (** segment file the damage is in *)
  offset : int;      (** byte offset of the frame start *)
  reason : reason;
  detail : string;
}

val reason_label : reason -> string
(** ["bad_crc"], ["truncated"], ["bad_varint"], ["unknown_tag"] — the
    [reason] label values of [iflow_stream_quarantined_total]. *)

val error_message : error -> string
(** ["SEGMENT@OFFSET: REASON (DETAIL)"]. *)

exception Corrupt of string
(** Structural damage: missing/short/bad-magic/bad-version header, or
    a segment chain whose indices do not line up. Unlike record damage
    this is never quarantined — the file is not a usable log. *)

val magic : string
val header_size : int

val segment_path : string -> int -> string
(** [segment_path base k] is [base] for [k = 0], [base.k] after. *)

val is_binlog : string -> bool
(** True when the file exists and starts with the magic bytes — the
    format sniff used by [--format=auto]. *)

(** {1 Writing} *)

module Writer : sig
  type t

  val create : ?segment_bytes:int -> string -> t
  (** Truncate/create a log at the given base path. A new segment is
      rolled when the current one would exceed [segment_bytes]
      (default 64 MiB; a frame never spans segments). Raises
      [Invalid_argument] when [segment_bytes] cannot hold a header and
      one small frame. *)

  val append : t -> Event.t -> unit
  (** Raises [Invalid_argument] on events the format cannot carry
      (negative ids/counts/times — such events would only ever be
      quarantined downstream). *)

  val events : t -> int
  val segments : t -> int

  val close : t -> unit
end

(** {1 Reading} *)

module Reader : sig
  type t

  val open_ : string -> t
  (** Loads the first segment; raises [Sys_error] when the file is
      missing and {!Corrupt} on structural damage. Segments are read
      whole into memory (they are bounded by the writer's
      [segment_bytes]), so following the frame chain is pointer
      walking. *)

  val next : t -> (Event.t, error) result option
  (** The next event slot, decoded; [None] at end of log. Crosses
      segment boundaries transparently. Each slot is one event towards
      offsets, damaged or not: a bad payload CRC, an unknown tag or a
      malformed body is an [Error] for that one record (framing was
      intact, so reading resumes at the next frame); a bad length
      varint or a record running past its segment consumes the rest
      of the segment as one [Error] slot (the frame chain cannot be
      followed past it), and reading resumes at the next segment. *)

  val skip : t -> int -> int
  (** [skip r n] consumes up to [n] event slots exactly as [n] calls
      of {!next} would, without decoding them (the resume path —
      mirrors line skipping, damaged slots included), and returns the
      number actually skipped. *)

  val events_seen : t -> int
  (** Event slots consumed so far (the replay offset). *)

  val segment : t -> string
  (** Path of the segment currently being read. *)
end

module Varint : sig
  val write : Buffer.t -> int -> unit
  (** Unsigned LEB128; raises [Invalid_argument] on negatives. *)
end
