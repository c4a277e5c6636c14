(** A ring-buffer flight recorder: one record per answered (or
    refused) query, kept in a fixed-size ring so the last N requests are
    always reconstructible after the fact — which path answered (cache /
    exact planner / MH / typed error), on which model version, and where
    the time went (queue wait, plan, sample, serialize).

    Records are immutable. {!submit}, the only writer, stores the
    record it is given (stamped with its sequence number and time, the
    one record it allocates) in the oldest cell under the ring's one
    mutex. A ring configured for N records holds the last N. Scrapes
    ({!recent}, {!find}) return the stored records themselves.

    Recording never feeds back into answers: records hold only ids,
    labels and clock readings, so enabling the recorder cannot perturb
    the sampler (the bit-for-bit invariant). *)

type path = Cache | Exact | Mh | Err
(** Which layer produced the answer. [Err] covers typed refusals
    (quota, capacity, bad query, chains failed). *)

val string_of_path : path -> string
(** ["cache" | "exact" | "mh" | "error"]. *)

type record = {
  seq : int;  (** global completion order; -1 = not stored in the ring *)
  id : string;  (** request id as echoed on the wire *)
  tenant : string;
  kind : string;  (** query cache key, e.g. ["flow 0 5"] *)
  path : path;
  fallback : string;  (** planner fallback reason, [""] = none *)
  error : string;  (** typed error code, [""] = none *)
  version : int;  (** served model version, -1 = unknown *)
  digest : string;  (** model digest, [""] = unknown *)
  queue_wait_ns : int;
  plan_ns : int;
  sample_ns : int;
  serialize_ns : int;
  rounds : int;  (** adaptive MH rounds (0 for exact/cache) *)
  samples : int;  (** total MH samples *)
  rhat : float;  (** nan when not sampled *)
  mcse : float;  (** nan when not sampled *)
  deadline_ns : int;
      (** the request's deadline budget in ns, 0 = none carried *)
  cancelled : bool;
      (** the deadline (or an explicit cancel) cut this request short —
          a partial answer or a typed [deadline_exceeded] *)
  ts_ns : int;  (** monotonic completion time, {!Clock} base *)
}

val configure : ?capacity:int -> unit -> unit
(** Enable the recorder with room for [capacity] records (default
    1024, clamped to at least 1); calling again resizes and clears. *)

val disable : unit -> unit
(** Stop recording and drop the ring. *)

val enabled : unit -> bool

val capacity : unit -> int
(** Cells in the ring; 0 when disabled. *)

val submit : record -> record
(** Record a caller-built record and return it as stored: a copy
    stamped with [ts_ns] (always — slow-query logging prints the
    returned record even when the ring is off) and, when enabled, the
    next [seq], which lands in the ring's oldest cell. *)

val recent : int -> record list
(** The most recent [n] records, newest first. *)

val find : string -> record option
(** The most recent record whose [id] matches, if still in the ring. *)

val clear : unit -> unit
(** Empty the ring without disabling (tests). *)

val to_json : record -> string
(** One JSON object (no trailing newline) with every field; [rhat] and
    [mcse] serialise as [null] when not finite ([deadline_ns] /
    [cancelled] appear only when set). *)
