(** Monotonic wall-clock time.

    [Sys.time] is process CPU time — it under-counts multi-domain work
    and over-counts busy waiting — and [Unix.gettimeofday] can jump
    when the system clock is adjusted. Everything in [iflow_obs] (and
    every wall timing in the repo) goes through this interface instead:
    [clock_gettime(CLOCK_MONOTONIC)] via a tiny C stub, returned as
    tagged-int nanoseconds so reading the clock never allocates. *)

val now_ns : unit -> int
(** Nanoseconds on the monotonic clock, from an arbitrary origin. Only
    differences are meaningful. No allocation. *)

val elapsed_ns : int -> int
(** [elapsed_ns t0] is [now_ns () - t0]. *)

val seconds_of_ns : int -> float
(** Nanoseconds to seconds ([/. 1e9]). *)

val time_per_call : ?min_interval:float -> ?max_reps:int -> (unit -> unit) ->
  float
(** [time_per_call f] is the mean wall seconds per call of [f],
    repeating [f] in growing batches until a batch spans at least
    [min_interval] seconds (default 0.05) or [max_reps] calls (default
    10_000_000). The monotonic replacement for the [Sys.time] timing
    loops the experiment modules used to carry. *)
