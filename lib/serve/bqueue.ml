type 'a t = {
  q : 'a Queue.t;
  capacity : int;
  lock : Mutex.t;
  nonempty : Condition.t;
  mutable closed : bool;
}

let create capacity =
  if capacity < 1 then invalid_arg "Bqueue.create: capacity must be >= 1";
  {
    q = Queue.create ();
    capacity;
    lock = Mutex.create ();
    nonempty = Condition.create ();
    closed = false;
  }

let capacity t = t.capacity

let length t = Mutex.protect t.lock (fun () -> Queue.length t.q)

let try_push t x =
  Mutex.protect t.lock (fun () ->
      if t.closed || Queue.length t.q >= t.capacity then false
      else begin
        Queue.push x t.q;
        Condition.signal t.nonempty;
        true
      end)

let pop t =
  Mutex.protect t.lock (fun () ->
      let rec wait () =
        match Queue.take_opt t.q with
        | Some x -> Some x
        | None ->
          if t.closed then None
          else begin
            Condition.wait t.nonempty t.lock;
            wait ()
          end
      in
      wait ())

let pop_opt t = Mutex.protect t.lock (fun () -> Queue.take_opt t.q)

let close t =
  Mutex.protect t.lock (fun () ->
      t.closed <- true;
      Condition.broadcast t.nonempty)

let is_closed t = Mutex.protect t.lock (fun () -> t.closed)
