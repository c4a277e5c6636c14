(** Plain-text serialisation of models and corpora, so the CLI can pass
    artifacts between subcommands.

    betaICM format ([.bicm], v3):
    {v
    # bicm-v3 digest=<fnv-hex> [key=value ...]
    bicm <n_nodes>
    <src> <dst> <alpha> <beta>      (one line per edge)
    # crc32 <hex> <n_bytes>
    v}

    ICM format ([.icm]): same with a single probability column and an
    [# icm-v3] header. v2 files (digest header, no CRC footer) and
    legacy headerless files are still accepted.

    {b Durability.} Model writes are atomic (sibling temporary, fsync,
    rename — {!Iflow_fault.Durable.write_atomic}), so a crash
    mid-checkpoint leaves the previous file intact. The footer is the
    CRC-32 of every byte before it plus that byte count; loaders verify
    both, so truncation and bit flips fail loudly at any byte position
    instead of producing a silently wrong model.

    The header digest is the model's {!Iflow_core.Beta_icm.digest} /
    {!Iflow_core.Icm.digest}; loaders recompute it and raise [Failure]
    on a mismatch, so a corrupted v2 file — or a streaming checkpoint
    replayed against the wrong model or event log — fails loudly. The
    remaining [key=value] fields are free-form metadata (the streaming
    layer records its event offset and version id there).

    Tweets are tab-separated [id author time text] lines, one per tweet
    (tweet text never contains tabs or newlines).

    All loaders raise [Failure] on malformed input; model-file messages
    carry the path and the byte offset (and line number) of the damage,
    so recovery code and operators can tell {e which} checkpoint broke
    and where. *)

val save_beta_icm :
  ?meta:(string * string) list -> string -> Iflow_core.Beta_icm.t -> unit
(** Writes a v3 file atomically. [meta] keys and values must be
    non-empty and free of spaces, [=] and newlines; the [digest] key is
    reserved. Raises [Invalid_argument] otherwise. *)

val load_beta_icm : string -> Iflow_core.Beta_icm.t

val load_beta_icm_meta :
  string -> Iflow_core.Beta_icm.t * (string * string) list
(** Also return the header's metadata fields (including [digest];
    empty for a legacy file). *)

val save_icm :
  ?meta:(string * string) list -> string -> Iflow_core.Icm.t -> unit

val load_icm : string -> Iflow_core.Icm.t

val save_tweets : string -> Iflow_twitter.Tweet.t list -> unit
val load_tweets : string -> Iflow_twitter.Tweet.t list

val save_names : string -> string array -> unit
(** One name per line; line number = node id. *)

val load_names : string -> string array
