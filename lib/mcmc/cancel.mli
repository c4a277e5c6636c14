(** Cooperative deadlines for deadline-bounded sampling.

    A deadline is an absolute monotonic instant ({!Iflow_obs.Clock}
    base) fixed at creation. Consumers ({!Estimator}, the engine's
    adaptive round loop) poll {!cancelled} at step and round
    boundaries; nothing is preempted, so work that completes before the
    deadline is bit-for-bit identical to an undeadlined run — the
    abandoned RNG streams are simply never read.

    This module also owns the one rule for a millisecond budget
    ({!check_ms}), which every place a client or operator names one
    applies: the ["deadline_ms"] member, the [X-Deadline-Ms] header,
    the server's millisecond config fields and the CLI's
    [--deadline-ms].

    Checking {!none} costs one integer compare (no clock read), so
    threading deadlines through every query is effectively free for
    deadline-less traffic. *)

type t

val none : t
(** The shared disarmed deadline: [cancelled none] is [false]
    forever. *)

val max_budget_ms : int
(** 2{^31} − 1 ms (~24.8 days): the longest budget {!check_ms} accepts.
    Far below the ~4.6e12 ms at which [ms * 1_000_000] plus a clock
    reading overflows, so a budget within it never wraps. *)

val check_ms : string -> int option -> (int, string) result
(** [check_ms name v] is [Ok ms] when [v] is [Some ms] with
    [1 <= ms <= max_budget_ms]; otherwise the one error wording,
    ["<name> must be an integer from 1 to 2147483647 milliseconds"],
    followed by [" (got <ms>)"] when [v] is an integer. [None] stands
    for a value that is not an integer at all. *)

val create : ?start_ns:int -> int -> t
(** [create ms] expires [ms] milliseconds after [start_ns] (a
    {!Iflow_obs.Clock.now_ns} reading; default now). Raises
    [Invalid_argument] with {!check_ms}'s wording when [ms] is out of
    range. *)

val cancelled : t -> bool
(** True once the deadline has passed. Monotone: never becomes false
    again. *)
