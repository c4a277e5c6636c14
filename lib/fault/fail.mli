(** Failpoint injection registry, after the FreeBSD and Rust [fail]
    crates: named points planted at failure-prone sites raise
    {!Injected} when armed, and cost one atomic load and a branch when
    not — cheap enough to leave compiled into production binaries at
    per-line / per-round call frequency (measured at under 2% of
    throughput with every point compiled in and disarmed).

    Arm points programmatically ({!arm}) in tests, or through the
    [IFLOW_FAILPOINTS] environment variable in chaos runs:

    {[ IFLOW_FAILPOINTS="snapshot.rename=1%raise;runner.read=3*raise" ]}

    Each entry is [name=task] with task [[P%][N*]raise] (fire with
    probability [P]% at most [N] times) or [off]. The name [*] is a
    catch-all matched when no specific entry exists. Probability
    triggers draw from a deterministic splitmix64 stream seeded by
    [IFLOW_FAILPOINTS_SEED], so a chaos run is reproducible. A
    malformed spec in the environment aborts the process at link time
    (exit 2) rather than running with silently disarmed chaos. *)

exception Injected of string
(** Raised by an armed {!point}, carrying the point's name. *)

val point : string -> unit
(** [point name] does nothing unless the registry is armed and an entry
    for [name] (or ["*"]) triggers, in which case it raises
    [Injected name]. *)

val enabled : unit -> bool
(** Whether any point is currently armed. *)

val arm : ?prob:float -> ?count:int -> string -> unit
(** Arm [name]: fire with probability [prob] (default 1) per
    evaluation, at most [count] times (default unlimited). Raises
    [Invalid_argument] on [prob] outside [0, 1] or [count < 1]. *)

val disarm : string -> unit
val reset : unit -> unit
(** Disarm one point / every point. *)

val hits : string -> int
(** How many times the named entry has fired since it was armed. *)

val configure : string -> (unit, string) result
(** Parse and apply a spec string (the [IFLOW_FAILPOINTS] grammar
    above). Entries are applied left to right; [Error] describes the
    first malformed entry. *)

val setup_from_env : unit -> (unit, string) result
(** Re-read [IFLOW_FAILPOINTS] and [IFLOW_FAILPOINTS_SEED]. Called
    automatically when the library is linked. *)

val set_seed : int -> unit
(** Reseed the probability-trigger stream. *)

val env_var : string
val env_seed_var : string
