(** Cooperative cancellation tokens for deadline-bounded sampling.

    A token carries an absolute monotonic deadline
    ({!Iflow_obs.Clock} base) fixed at creation, plus an explicit
    {!fire} for callers that cancel for another reason. Consumers
    ({!Estimator}, the engine's adaptive round loop) poll {!cancelled}
    at step and round boundaries; nothing is preempted, so work that
    completes before the token trips is bit-for-bit identical to an
    uncancelled run — the abandoned RNG streams are simply never read.

    Checking a {!none}/unarmed token costs one atomic load plus an
    integer compare (no clock read), so threading tokens through every
    query is effectively free for deadline-less traffic. *)

type t

val none : t
(** The shared disarmed token: never expires, must never be
    {!fire}d. [cancelled none] is [false] forever. *)

val max_budget_ms : int
(** 2{^31} − 1 ms (~24.8 days): the longest deadline budget accepted
    anywhere a client or operator names one in milliseconds. Far below
    the ~4.6e12 ms at which [ms * 1_000_000] plus a clock reading
    overflows, so a budget within it never wraps. *)

val create : ?deadline_ns:int -> unit -> t
(** A fresh token expiring at the given absolute
    {!Iflow_obs.Clock.now_ns} instant (omit for a fire-only token). *)

val with_budget : budget_ns:int -> unit -> t
(** [create ~deadline_ns:(now + budget_ns)]. Raises [Invalid_argument]
    on a negative budget ([budget_ns = 0] is an already-expired
    token). *)

val cancelled : t -> bool
(** True once the deadline has passed or {!fire} was called. Monotone:
    never becomes false again. *)

val fire : ?reason:string -> t -> unit
(** Trip the token now, recording [reason] (default ["cancelled"]).
    Idempotent; the first reason wins and outranks later expiry. *)

type status = Live | Expired | Fired of string

val status : t -> status
(** Distinguishes deadline expiry from an explicit fire. *)

val reason : t -> string option
(** Human-readable cause when cancelled, [None] while live. *)

val deadline_ns : t -> int option
(** The absolute deadline, [None] for fire-only / disarmed tokens. *)
