(** Just enough HTTP/1.1 for the serving endpoints.

    The server is not a general web server: it accepts one request per
    connection (responses carry [Connection: close]), reads bodies by
    [Content-Length] only, and bounds both header and body sizes. The
    full HTTP surface is five routes ([POST /query], [POST /evidence],
    [GET /metrics], [GET /healthz], [GET /debug/requests]); everything
    richer speaks the raw JSONL dialect instead. *)

type request = {
  meth : string;                      (** uppercased, e.g. ["POST"] *)
  path : string;                      (** as sent, query string included *)
  headers : (string * string) list;   (** names lowercased *)
  body : string;
}

type parse =
  | Request of request
  | Malformed of string   (** answer 400 and close *)
  | Overflow of string    (** answer 431/413 and close *)

val read_request :
  ?max_headers:int -> ?max_body_bytes:int -> Sockio.reader ->
  first_line:string -> parse
(** Parse a request whose request-line, already consumed by the
    protocol sniffer, is [first_line]; reads headers and body from the
    reader. Defaults: 100 header lines, 8 MiB body. *)

val decimal : string -> int option
(** [1*DIGIT] up to [max_int], the only integer syntax on the HTTP
    wire ([Content-Length], [X-Deadline-Ms], query parameters). *)

val header : request -> string -> string option
(** Case-insensitive header lookup. *)

val split_target : string -> string * string
(** Split a request target into (path, query string); the query is
    [""] when there is no ['?']. *)

val query_param : string -> string -> string option
(** [query_param query name] finds [name]'s value in an
    ["a=1&b=2"]-style query string ([Some ""] for a bare key). No
    percent-decoding — the debug endpoints only take small integers. *)

val is_http_verb : string -> bool
(** Does this first line look like an HTTP request-line? (The protocol
    sniff: anything else is treated as a JSONL query line.) *)

val response : ?headers:(string * string) list -> status:int -> string -> string
(** Serialise a full response: the status line, [headers] in order
    (led by [Content-Type: application/json] unless they name a
    [Content-Type]), [Content-Length], [Connection: close], then the
    body. *)

val reason : int -> string
(** Canonical reason phrase ([200 -> "OK"], [429 -> "Too Many
    Requests"], ...). *)
