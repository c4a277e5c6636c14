(** Deterministic pseudo-random number generation.

    Thin wrapper around [Random.State] so every stochastic component in
    the library threads an explicit generator — experiments are
    reproducible from a seed and tests can pin randomness. *)

type t

val create : int -> t
(** [create seed] is a fresh generator deterministically derived from
    [seed]. *)

val split : t -> t
(** [split t] is a new generator whose stream is derived from (and
    independent of further draws from) [t]. Used to give parallel
    experiment repetitions distinct streams. *)

val float : t -> float -> float
(** [float t bound] draws uniformly from [[0, bound)]. *)

val uniform : t -> float
(** [uniform t] draws uniformly from [[0, 1)]: the same value as
    [Random.State.float (state t) 1.0], namely
    [Float.of_int (bits53 t) *. 0x1.p-53]. *)

val bits53 : t -> int
(** [bits53 t] is the non-zero 53-bit integer behind {!uniform}. A
    float returned from another module is boxed, an int is not, so a
    loop that must not allocate draws this and scales it itself. *)

val uniform_in : t -> float -> float -> float
(** [uniform_in t lo hi] draws uniformly from [[lo, hi)]. *)

val int : t -> int -> int
(** [int t bound] draws uniformly from [{0, ..., bound - 1}]. *)

val bool : t -> bool
(** [bool t] is a fair coin flip. *)

val bernoulli : t -> float -> bool
(** [bernoulli t p] is [true] with probability [p]. *)

val shuffle : t -> 'a array -> unit
(** [shuffle t a] permutes [a] in place, uniformly (Fisher-Yates). *)

val choose : t -> 'a array -> 'a
(** [choose t a] draws a uniform element of [a]. Raises
    [Invalid_argument] on an empty array. *)
