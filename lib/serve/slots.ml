type admission = Run | Full | Closed

(* a waiter parks on its own condition until [leave] hands it a slot
   or [close] turns it away; only its verdict wakes it *)
type waiter = { turn : Condition.t; mutable verdict : admission option }

type t = {
  lock : Mutex.t;
  capacity : int;
  mutable free : int; (* 0 whenever [line] is non-empty *)
  line : waiter Queue.t;
  mutable closed : bool;
}

let create ~slots ~capacity =
  if slots < 1 || capacity < 1 then
    invalid_arg "Slots.create: slots and capacity must be >= 1";
  { lock = Mutex.create (); capacity; free = slots; line = Queue.create ();
    closed = false }

let enter t =
  Mutex.protect t.lock (fun () ->
      if t.closed then Closed
      else if t.free > 0 then begin
        t.free <- t.free - 1;
        Run
      end
      else if Queue.length t.line >= t.capacity then Full
      else begin
        let w = { turn = Condition.create (); verdict = None } in
        Queue.push w t.line;
        let rec wait () =
          match w.verdict with
          | Some v -> v
          | None ->
            Condition.wait w.turn t.lock;
            wait ()
        in
        wait ()
      end)

let settle w v =
  w.verdict <- Some v;
  Condition.signal w.turn

let leave t =
  Mutex.protect t.lock (fun () ->
      match Queue.take_opt t.line with
      | Some w -> settle w Run
      | None -> t.free <- t.free + 1)

let close t =
  Mutex.protect t.lock (fun () ->
      t.closed <- true;
      Queue.iter (fun w -> settle w Closed) t.line;
      Queue.clear t.line)

let waiting t = Mutex.protect t.lock (fun () -> Queue.length t.line)
