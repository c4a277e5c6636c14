(** A bounded multi-producer / multi-consumer queue — the server's
    evidence hand-off to the learner.

    Producers (connection threads posting evidence) offer items with
    {!try_push}, which {e refuses} instead of blocking when the queue
    is full: the caller turns that refusal into a typed over-capacity
    response, so overload sheds at the front door instead of growing
    an unbounded backlog. Consumers block in {!pop} until an item
    arrives or the queue is closed {e and} drained — close is
    graceful: everything pushed before the close is still handed
    out. *)

type 'a t

val create : int -> 'a t
(** [create capacity]. Raises [Invalid_argument] when [capacity < 1]. *)

val capacity : 'a t -> int

val length : 'a t -> int
(** Current depth (racy by nature; exact at the instant of the lock). *)

val try_push : 'a t -> 'a -> bool
(** Enqueue unless the queue is full or closed; never blocks. [false]
    is the admission-control signal: the item was {e not} accepted. *)

val pop : 'a t -> 'a option
(** Block until an item is available ([Some]) or the queue is closed
    and empty ([None]). *)

val pop_opt : 'a t -> 'a option
(** Non-blocking variant: [None] when currently empty (closed or not). *)

val close : 'a t -> unit
(** Refuse new pushes; wake every blocked consumer. Idempotent. *)

val is_closed : 'a t -> bool
