(** One reusable value per domain, such as a scratch sized to a model.

    A user takes the value out of its domain's slot for the length of
    one use and puts it back after, so two threads of one domain never
    share it: the second finds the slot empty and builds its own. The
    slot keeps whichever value was put back last. *)

type 'a t

val create : unit -> 'a t
(** A new slot, empty on every domain. *)

val take : 'a t -> 'a option
(** The calling domain's value, leaving its slot empty; [None] when the
    slot is empty. *)

val put : 'a t -> 'a -> unit
(** Put a value back in the calling domain's slot. *)
