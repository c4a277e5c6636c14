(** A minimal JSON parser for the batch-query wire format.

    The container deliberately carries no third-party JSON dependency,
    so the engine ships its own ~150-line recursive-descent parser:
    full JSON values (objects, arrays, strings with escapes, numbers,
    booleans, null), one document per call — i.e. one JSONL line.
    Numbers are represented as floats, as in JavaScript. *)

type value =
  | Null
  | Bool of bool
  | Num of float
  | Str of string
  | List of value list
  | Obj of (string * value) list

val parse : string -> (value, string) result
(** Parse one complete JSON document; trailing non-whitespace is an
    error (JSONL framing is the caller's job: one line, one call). *)

val member : string -> value -> value option
(** Field lookup on an [Obj]; [None] on missing field or non-object. *)

val to_int : value -> int option
(** [Num] with an integral value of magnitude at most 2{^53}, where a
    float names one integer exactly; [None] beyond (e.g. [1e300]). *)

val to_string : value -> string option
val to_list : value -> value list option
