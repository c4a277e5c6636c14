(** The server's admission gate: [slots] requests execute at once and
    at most [capacity] more wait for a slot, first come first served.

    A connection thread calls {!enter} before it runs a query and
    {!leave} after. With every slot busy and the line full, {!enter}
    refuses at once, so overload sheds at the front door and the
    backlog cannot grow. A freed slot passes straight to the oldest
    waiter. *)

type t

type admission =
  | Run     (** a slot is held: run, then {!leave} *)
  | Full    (** every slot busy and [capacity] requests already waiting *)
  | Closed  (** {!close} came first *)

val create : slots:int -> capacity:int -> t
(** Raises [Invalid_argument] when either is below 1. *)

val enter : t -> admission
(** Take a free slot or wait in line for one; never waits when the
    line is full or the gate is closed. *)

val leave : t -> unit
(** Free the slot a [Run] took, handing it to the oldest waiter. *)

val close : t -> unit
(** Refuse new arrivals and release every waiter with [Closed]; slot
    holders finish normally. Idempotent. *)

val waiting : t -> int
(** Requests waiting for a slot right now. *)
