type path = Cache | Exact | Mh | Err

let string_of_path = function
  | Cache -> "cache"
  | Exact -> "exact"
  | Mh -> "mh"
  | Err -> "error"

type record = {
  mutable seq : int;
  mutable id : string;
  mutable tenant : string;
  mutable kind : string;
  mutable path : path;
  mutable fallback : string;
  mutable error : string;
  mutable version : int;
  mutable digest : string;
  mutable queue_wait_ns : int;
  mutable plan_ns : int;
  mutable sample_ns : int;
  mutable serialize_ns : int;
  mutable rounds : int;
  mutable samples : int;
  mutable rhat : float;
  mutable mcse : float;
  mutable deadline_ns : int;
  mutable cancelled : bool;
  mutable ts_ns : int;
}

let empty_cell () =
  {
    seq = -1;
    id = "";
    tenant = "";
    kind = "";
    path = Err;
    fallback = "";
    error = "";
    version = -1;
    digest = "";
    queue_wait_ns = 0;
    plan_ns = 0;
    sample_ns = 0;
    serialize_ns = 0;
    rounds = 0;
    samples = 0;
    rhat = Float.nan;
    mcse = Float.nan;
    deadline_ns = 0;
    cancelled = false;
    ts_ns = 0;
  }

type ring = {
  m : Mutex.t;
  mutable cells : record array; (* [||] while disabled *)
  mutable cursor : int; (* the next cell to overwrite: the oldest *)
  mutable next_seq : int;
}

let ring = { m = Mutex.create (); cells = [||]; cursor = 0; next_seq = 0 }

(* the one-load-one-branch gate on the hot path; flipped only under the
   ring lock so [submit] never sees a half-built ring *)
let on = Atomic.make false

let enabled () = Atomic.get on

let configure ?(capacity = 1024) () =
  Mutex.protect ring.m (fun () ->
      ring.cells <- Array.init (max 1 capacity) (fun _ -> empty_cell ());
      ring.cursor <- 0;
      ring.next_seq <- 0;
      Atomic.set on true)

let disable () =
  Mutex.protect ring.m (fun () ->
      Atomic.set on false;
      ring.cells <- [||];
      ring.cursor <- 0)

let capacity () = if Atomic.get on then Array.length ring.cells else 0

let clear () =
  Mutex.protect ring.m (fun () ->
      Array.iter (fun c -> c.seq <- -1) ring.cells;
      ring.cursor <- 0;
      ring.next_seq <- 0)

(* ----- load hint -----

   An EWMA (alpha 1/8) of queue-wait and serialize times over the
   requests that actually ran (queue_wait_ns > 0 — refusals at
   admission never waited and would drag the estimate to zero). This
   is the conservative floor deadline-aware admission compares a
   request's budget against: every admitted request pays at least the
   queue wait plus serialization, whatever path answers it. Plain
   atomics with racy read-modify-write — a lost update nudges the
   EWMA by one sample, which is noise at admission-decision scale. *)

type hint = { h_queue_wait_ns : int; h_serialize_ns : int; h_count : int }

let hint_queue_wait = Atomic.make 0
let hint_serialize = Atomic.make 0
let hint_count = Atomic.make 0

let ewma cell x =
  let old = Atomic.get cell in
  Atomic.set cell (if old = 0 then x else old + ((x - old) asr 3))

let observe_load ~queue_wait_ns ~serialize_ns =
  if queue_wait_ns > 0 then begin
    ewma hint_queue_wait queue_wait_ns;
    ewma hint_serialize (max 0 serialize_ns);
    Atomic.incr hint_count
  end

let load_hint () =
  {
    h_queue_wait_ns = Atomic.get hint_queue_wait;
    h_serialize_ns = Atomic.get hint_serialize;
    h_count = Atomic.get hint_count;
  }

let reset_load_hint () =
  Atomic.set hint_queue_wait 0;
  Atomic.set hint_serialize 0;
  Atomic.set hint_count 0

let submit r =
  r.ts_ns <- Clock.now_ns ();
  observe_load ~queue_wait_ns:r.queue_wait_ns ~serialize_ns:r.serialize_ns;
  if Atomic.get on then begin
    Mutex.lock ring.m;
    (* [disable] may have raced us past the gate; the ring may be gone *)
    let n = Array.length ring.cells in
    if n > 0 then begin
      r.seq <- ring.next_seq;
      ring.next_seq <- ring.next_seq + 1;
      let c = ring.cells.(ring.cursor) in
      ring.cursor <- (ring.cursor + 1) mod n;
      c.seq <- r.seq;
      c.id <- r.id;
      c.tenant <- r.tenant;
      c.kind <- r.kind;
      c.path <- r.path;
      c.fallback <- r.fallback;
      c.error <- r.error;
      c.version <- r.version;
      c.digest <- r.digest;
      c.queue_wait_ns <- r.queue_wait_ns;
      c.plan_ns <- r.plan_ns;
      c.sample_ns <- r.sample_ns;
      c.serialize_ns <- r.serialize_ns;
      c.rounds <- r.rounds;
      c.samples <- r.samples;
      c.rhat <- r.rhat;
      c.mcse <- r.mcse;
      c.deadline_ns <- r.deadline_ns;
      c.cancelled <- r.cancelled;
      c.ts_ns <- r.ts_ns
    end;
    Mutex.unlock ring.m
  end

(* copies of the filled cells, newest first: walking from the oldest
   cell and consing leaves the one written last at the head *)
let newest_first () =
  Mutex.protect ring.m (fun () ->
      let n = Array.length ring.cells in
      let rec go k acc =
        if k = n then acc
        else
          let c = ring.cells.((ring.cursor + k) mod n) in
          go (k + 1) (if c.seq >= 0 then { c with id = c.id } :: acc else acc)
      in
      go 0 [])

let recent n = List.filteri (fun i _ -> i < n) (newest_first ())
let find id = List.find_opt (fun c -> c.id = id) (newest_first ())

let add_str buf k v =
  Buffer.add_char buf '"';
  Buffer.add_string buf k;
  Buffer.add_string buf "\":\"";
  Json.escape buf v;
  Buffer.add_string buf "\","

let add_int buf k v =
  Buffer.add_char buf '"';
  Buffer.add_string buf k;
  Buffer.add_string buf "\":";
  Buffer.add_string buf (string_of_int v);
  Buffer.add_char buf ','

let add_float buf k v =
  Buffer.add_char buf '"';
  Buffer.add_string buf k;
  Buffer.add_string buf "\":";
  Buffer.add_string buf
    (if Float.is_finite v then Printf.sprintf "%.17g" v else "null");
  Buffer.add_char buf ','

let to_json r =
  let buf = Buffer.create 256 in
  Buffer.add_char buf '{';
  add_int buf "seq" r.seq;
  add_str buf "request_id" r.id;
  add_str buf "tenant" r.tenant;
  add_str buf "kind" r.kind;
  add_str buf "path" (string_of_path r.path);
  if r.fallback <> "" then add_str buf "fallback" r.fallback;
  if r.error <> "" then add_str buf "error" r.error;
  add_int buf "version" r.version;
  add_str buf "digest" r.digest;
  add_int buf "queue_wait_ns" r.queue_wait_ns;
  add_int buf "plan_ns" r.plan_ns;
  add_int buf "sample_ns" r.sample_ns;
  add_int buf "serialize_ns" r.serialize_ns;
  add_int buf "rounds" r.rounds;
  add_int buf "samples" r.samples;
  add_float buf "rhat" r.rhat;
  add_float buf "mcse" r.mcse;
  if r.deadline_ns > 0 then add_int buf "deadline_ns" r.deadline_ns;
  if r.cancelled then begin
    Buffer.add_string buf "\"cancelled\":true";
    Buffer.add_char buf ','
  end;
  add_int buf "ts_ns" r.ts_ns;
  (* drop the trailing comma *)
  Buffer.truncate buf (Buffer.length buf - 1);
  Buffer.add_char buf '}';
  Buffer.contents buf
