(** JSON string escaping, shared by every JSON writer in the repo (the
    metrics snapshot, trace events, flight records and the wire
    codec), so they all escape a string the same way. *)

val escape : Buffer.t -> string -> unit
(** Append a string to the buffer with double quote, backslash,
    newline, tab and carriage return backslash-escaped and every other
    control character written as [\u00XX]. The surrounding quotes are
    the caller's. *)
