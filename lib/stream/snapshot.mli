(** Model versioning for the streaming pipeline: immutable published
    versions with monotonic ids, crash-safe rotated [.bicm] checkpoints
    carrying a replay offset, and hot-swap into a running
    {!Iflow_engine.Engine}.

    The accumulator mutates continuously; what the rest of the system
    sees are the {e versions} published here: an immutable frozen
    model, its id and the log offset (lines consumed) it reflects.
    Publishing hashes nothing; swapping a version into an engine tags
    the engine with its id (the engine hashes the expected ICM once)
    and evicts the retired version's cache entries; queries already
    running finish on the version they captured.

    {b Durability.} Checkpoints are written atomically
    ({!Iflow_io.Model_io} v3: tmp + fsync + rename + CRC-32 footer) and
    rotated ([path], [path.1], ..., newest first), with writes wrapped
    in a {!Iflow_fault.Retry} policy. {!recover} walks the rotated set
    newest-first and returns the first checkpoint that loads and
    verifies, so a crash mid-write — or a torn copy — costs at most one
    checkpoint interval of replay, never the run. *)

type version = {
  id : int;          (** monotonic, starting at 0 for the seed model *)
  model : Iflow_core.Beta_icm.t;
  offset : int;      (** event-log lines consumed when published *)
}

type t

val create :
  ?checkpoint_path:string -> ?keep:int -> ?retry:Iflow_fault.Retry.policy ->
  ?id:int -> ?offset:int -> Iflow_core.Beta_icm.t -> t
(** The given seed model becomes the current version — id 0 at offset 0
    unless resuming from a {!recover}ed checkpoint, whose id and offset
    continue the original numbering. When [checkpoint_path] is set,
    {!checkpoint} writes there, retaining [keep] total generations
    (default 1: just the current file, no rotation) and retrying failed
    writes per [retry] (default {!Iflow_fault.Retry.default}). Raises
    [Invalid_argument] on negative id/offset or [keep < 1]. *)

val current : t -> version

val published : t -> int
(** The current version id. *)

val checkpoints_written : t -> int

val publish : t -> Iflow_core.Beta_icm.t -> offset:int -> version
(** Make [model] the current version with the next id; O(1). *)

val swap_into : t -> Iflow_engine.Engine.t -> int
(** Hot-swap the engine onto the current version's expected ICM, tagged
    with its id, via {!Iflow_engine.Engine.swap}; returns the evicted
    cache-entry count. *)

val checkpoint : t -> unit
(** Rotate the checkpoint set down one generation, then atomically
    write the current version to [checkpoint_path] as a v3 [.bicm]
    whose header records [offset], [version] and the model's
    {!Iflow_core.Beta_icm.digest} (hashed here only) — everything
    {!recover} needs. Transient write failures are retried per the
    [retry] policy; the exception of the final failed attempt
    propagates (the rotation has already preserved the previous
    generation, so a failed write never destroys a good checkpoint).
    No-op without a path. Failpoints: [snapshot.checkpoint] before each
    attempt, plus [model_io.write]/[fsync]/[rename] inside the atomic
    write. *)

val recover :
  ?on_skip:(path:string -> reason:string -> unit) ->
  string -> Iflow_core.Beta_icm.t * int * int
(** [recover path] loads the newest valid checkpoint of the rotated set
    ([path], then [path.1], ...) and returns [(model, offset, version)].
    Replay resumes by skipping [offset] lines of the event log. Damaged
    generations (truncated, bit-flipped, digest mismatch, missing
    offset/version fields) are reported to [on_skip] with the
    underlying error — which names the file and byte offset of the
    damage, see {!Iflow_io.Model_io} — counted in
    [iflow_stream_recover_fallbacks_total], and skipped. The last
    candidate's error propagates as-is when nothing in the set is
    loadable. *)
