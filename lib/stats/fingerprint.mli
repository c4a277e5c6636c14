(** Incremental 64-bit FNV-1a fingerprints.

    Deterministic, platform-independent content hashing for cache keys
    and derived seeds: feed ints / floats / strings in a fixed order and
    read the digest out as hex (cache keys) or as a non-negative int
    (seeding an {!Rng.t}). Not cryptographic — collision resistance is
    the 64-bit birthday bound, plenty for memoisation keys.

    {b The values are a file format.} The [.icm] / [.bicm] headers
    store a model's digest and loaders recompute and compare it, and
    the engine's per-query seeds hash the model digest, so every sampled
    answer depends on these exact values. The byte order of each [add_*]
    below (integers as 8 little-endian bytes, floats as their IEEE-754
    bits, lengths folded after contents) must never change; a faster
    implementation has to give the same [value] for the same calls.

    Every [add_*] folds its bytes in a local unboxed accumulator, so a
    call allocates at most one boxed [int64] however long its input. *)

type t

val create : unit -> t
(** A fresh fingerprint at the FNV-1a offset basis. *)

val resume : int64 -> t
(** [resume (value t)] continues where [t] stood: feeding the same
    bytes afterwards gives the same digest as feeding them to [t].
    {!Iflow_graph.Digraph.fingerprint} keeps such a state for a graph's
    structure, so model digests hash only their per-edge numbers. *)

val add_byte : t -> int -> unit
(** Feed the low 8 bits of an int. *)

val add_int : t -> int -> unit
val add_int64 : t -> int64 -> unit

val add_float : t -> float -> unit
(** Feeds the IEEE-754 bit pattern, so [0.0] and [-0.0] differ and
    NaNs hash by representation. *)

val add_bool : t -> bool -> unit

val add_string : t -> string -> unit
(** Feeds the bytes then the length, so consecutive strings of
    different splits fingerprint differently. *)

val add_floats : t -> float array -> unit
(** {!add_float} on each element, then {!add_int} of the length. *)

val add_float_pairs : t -> float array -> float array -> unit
(** [add_float_pairs t xs ys] feeds [xs.(i)] then [ys.(i)] for each [i]
    in order, with no length: the per-edge [(alpha, beta)] layout of
    {!Iflow_core.Beta_icm.digest}. Raises [Invalid_argument] when the
    lengths differ. *)

val add_ints : t -> int array -> unit
(** {!add_int} on each element, then {!add_int} of the length. *)

val value : t -> int64
(** The current 64-bit digest. *)

val to_hex : t -> string
(** The digest as 16 lowercase hex characters. *)

val to_seed : t -> int
(** The digest folded to a non-negative OCaml int, for [Rng.create]. *)
