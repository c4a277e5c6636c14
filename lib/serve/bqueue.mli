(** A bounded multi-producer / multi-consumer queue — the server's
    hand-off of accepted connections to a serving domain's mailbox.

    Producers offer items with {!try_push}, which {e refuses} instead
    of blocking when the queue is full, so a caller can shed instead of
    growing an unbounded backlog. Consumers block in {!pop} until an item
    arrives or the queue is closed {e and} drained — close is
    graceful: everything pushed before the close is still handed
    out. *)

type 'a t

val create : int -> 'a t
(** [create capacity]. Raises [Invalid_argument] when [capacity < 1]. *)

val try_push : 'a t -> 'a -> bool
(** Enqueue unless the queue is full or closed; never blocks. [false]
    is the admission-control signal: the item was {e not} accepted. *)

val pop : 'a t -> 'a option
(** Block until an item is available ([Some]) or the queue is closed
    and empty ([None]). *)

val close : 'a t -> unit
(** Refuse new pushes; wake every blocked consumer. Idempotent. *)
