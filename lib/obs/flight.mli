(** A ring-buffer flight recorder: one record per answered (or
    refused) query, kept in a fixed-size ring so the last N requests are
    always reconstructible after the fact — which path answered (cache /
    exact planner / MH / typed error), on which model version, and where
    the time went (queue wait, plan, sample, serialize).

    The ring is allocation-free in steady state: every cell is
    pre-allocated at {!configure} and {!submit}, the only writer, copies
    a record's fields into the oldest cell in place under the ring's one
    mutex. A ring configured for N records holds the last N. With the
    recorder off, {!submit} costs one atomic load and a branch past the
    load hint. Scrapes ({!recent}, {!find}) copy records out and may
    allocate freely — they run on the debug path, not the hot one.

    Recording never feeds back into answers: records hold only ids,
    labels and clock readings, so enabling the recorder cannot perturb
    the sampler (the bit-for-bit invariant). *)

type path = Cache | Exact | Mh | Err
(** Which layer produced the answer. [Err] covers typed refusals
    (quota, capacity, bad query, chains failed). *)

val string_of_path : path -> string
(** ["cache" | "exact" | "mh" | "error"]. *)

type record = {
  mutable seq : int;  (** global completion order; -1 = empty cell *)
  mutable id : string;  (** request id as echoed on the wire *)
  mutable tenant : string;
  mutable kind : string;  (** query cache key, e.g. ["flow 0 5"] *)
  mutable path : path;
  mutable fallback : string;  (** planner fallback reason, [""] = none *)
  mutable error : string;  (** typed error code, [""] = none *)
  mutable version : int;  (** served model version, -1 = unknown *)
  mutable digest : string;  (** model digest, [""] = unknown *)
  mutable queue_wait_ns : int;
  mutable plan_ns : int;
  mutable sample_ns : int;
  mutable serialize_ns : int;
  mutable rounds : int;  (** adaptive MH rounds (0 for exact/cache) *)
  mutable samples : int;  (** total MH samples *)
  mutable rhat : float;  (** nan when not sampled *)
  mutable mcse : float;  (** nan when not sampled *)
  mutable deadline_ns : int;
      (** the request's deadline budget in ns, 0 = none carried *)
  mutable cancelled : bool;
      (** the deadline (or an explicit cancel) cut this request short —
          a partial answer or a typed [deadline_exceeded] *)
  mutable ts_ns : int;  (** monotonic completion time, {!Clock} base *)
}

val configure : ?capacity:int -> unit -> unit
(** Enable the recorder with room for [capacity] records (default
    1024, clamped to at least 1). Pre-allocates every cell; calling
    again resizes and clears. *)

val disable : unit -> unit
(** Stop recording and drop the ring. *)

val enabled : unit -> bool

val capacity : unit -> int
(** Cells in the ring; 0 when disabled. *)

val submit : record -> unit
(** Record a caller-built record: stamps [ts_ns] on the argument
    (always — slow-query logging prints the same record even when the
    ring is off), assigns [seq] when enabled, and copies the fields
    into the ring's oldest cell. The argument is not retained. *)

val recent : int -> record list
(** The most recent [n] records, newest first.
    Copies — safe to hold across further recording. *)

val find : string -> record option
(** The most recent record whose [id] matches, if still in the ring. *)

val clear : unit -> unit
(** Empty the ring without disabling (tests). *)

val to_json : record -> string
(** One JSON object (no trailing newline) with every field; [rhat] and
    [mcse] serialise as [null] when not finite ([deadline_ns] /
    [cancelled] appear only when set). *)

(** {1 Load hint} — what recent requests actually paid.

    Deadline-aware admission asks: can this request's budget cover
    even the floor every admitted request pays (queue wait +
    serialization)? The floor comes from an EWMA (alpha 1/8) over
    {!submit}ted records that ran ([queue_wait_ns > 0]), updated
    whether or not the ring is enabled. Reads are racy-by-design
    atomics — cheap enough for the admission path. *)

type hint = {
  h_queue_wait_ns : int;  (** EWMA queue wait of executed requests *)
  h_serialize_ns : int;   (** EWMA serialize time of the same *)
  h_count : int;          (** executed requests folded in since reset *)
}

val load_hint : unit -> hint

val reset_load_hint : unit -> unit
(** Back to all-zero (tests; also sensible after a long idle gap). *)
