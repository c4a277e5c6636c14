(** Buffered reads and careful writes over a socket.

    One reader per connection: a fixed read buffer plus a line
    splitter, shared by both wire dialects (HTTP header lines and raw
    JSONL), so the server can sniff the first line of a connection and
    then keep reading in whichever dialect it turned out to be.

    Lines are capped: a peer streaming an unbounded "line" is an
    admission-control problem, not an out-of-memory one. *)

type reader

val max_line_bytes : int
(** 1 MiB: the default cap on one line. *)

val reader : ?max_line_bytes:int -> Unix.file_descr -> reader
(** Caps each line at [max_line_bytes]. Reading a line costs one copy of it,
    however many reads it took to arrive. *)

(** {1 The slow-loris guard} *)

val request_windows : int
(** 4: how many read windows one request may take. *)

val guard : reader -> window_ms:int -> unit
(** Bound how long a peer may hold the reader. A read that waits one
    whole window for a byte ([SO_RCVTIMEO], set on the fd together
    with [SO_SNDTIMEO]) returns {!Timeout}; so does a read once the
    current request has taken {!request_windows} windows since its
    first read, however steadily its bytes dribble in. Without a guard
    the reader waits as long as the fd does. *)

val end_request : reader -> unit
(** The current request is complete: the next read starts a fresh
    request deadline. Call it once a request has been read, before
    answering it, so the time spent answering is never charged to the
    next request. *)

val expired : reader -> bool
(** Whether a {!Timeout} came from the request deadline (the peer was
    dribbling) rather than a window of silence. *)

type line =
  | Line of string     (** one line, terminator stripped (LF or CRLF) *)
  | Eof                (** clean end of stream *)
  | Too_long           (** line exceeded the cap; connection unusable *)
  | Timeout            (** the {!guard} fired with the line unfinished:
                           a window of silence ([SO_RCVTIMEO]) or the
                           request deadline; the connection should be
                           closed *)

val read_line : reader -> line
(** Raises [Unix.Unix_error] on hard socket errors ([EINTR] retried;
    [EAGAIN]/[EWOULDBLOCK] from a receive timeout becomes
    {!Timeout}). *)

val read_exactly : reader -> int -> string option
(** [read_exactly r n] returns [n] bytes (for Content-Length bodies) or
    [None] when the stream ends — or times out — first. *)

val write_all : Unix.file_descr -> string -> unit
(** Write the whole string ([EINTR]/short writes retried). Raises
    [Unix.Unix_error] (e.g. [EPIPE]) when the peer is gone. *)
