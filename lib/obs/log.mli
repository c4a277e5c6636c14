(** A leveled structured logger for the runner and CLI, replacing raw
    [eprintf] reporting. Lines go to [stderr] as
    ["<ts> <level> [<component>] rid=<id> <message>"] where [<ts>] is
    the monotonic {!Clock} reading in seconds (microsecond precision) —
    subtract two to get an interval; the base is arbitrary. The default
    level is {!Warn} so stdout-parsing callers see no new output unless
    they opt in.

    Emission is serialised on a process-wide mutex: each call formats
    its whole line first, then writes and flushes it atomically, so
    concurrent domains never interleave partial lines. The optional
    [?rid] names the request a line belongs to, matching the
    [request_id] echoed on the wire and recorded by {!Flight}. *)

type level = Error | Warn | Info | Debug

val set_level : level -> unit
val level : unit -> level

val level_of_string : string -> (level, string) result
(** Accepts ["error"], ["warn"], ["info"], ["debug"] (any case). *)

val err :
  ?component:string ->
  ?rid:string ->
  ('a, Format.formatter, unit, unit) format4 ->
  'a

val warn :
  ?component:string ->
  ?rid:string ->
  ('a, Format.formatter, unit, unit) format4 ->
  'a

val info :
  ?component:string ->
  ?rid:string ->
  ('a, Format.formatter, unit, unit) format4 ->
  'a

val debug :
  ?component:string ->
  ?rid:string ->
  ('a, Format.formatter, unit, unit) format4 ->
  'a
(** Formatted log statements; each emits one line (a trailing newline
    is appended) when its level is enabled, and evaluates its
    arguments' formatting only then. *)
