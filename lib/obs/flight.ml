type path = Cache | Exact | Mh | Err

let string_of_path = function
  | Cache -> "cache"
  | Exact -> "exact"
  | Mh -> "mh"
  | Err -> "error"

type record = {
  seq : int;
  id : string;
  tenant : string;
  kind : string;
  path : path;
  fallback : string;
  error : string;
  version : int;
  digest : string;
  queue_wait_ns : int;
  plan_ns : int;
  sample_ns : int;
  serialize_ns : int;
  rounds : int;
  samples : int;
  rhat : float;
  mcse : float;
  deadline_ns : int;
  cancelled : bool;
  ts_ns : int;
}

(* The ring keeps the records [submit] stores, so every record it holds
   is immutable and scrapes share them. [cells] is made from the first
   record stored, so the ring needs no placeholder record. *)
type ring = {
  m : Mutex.t;
  mutable size : int; (* 0 while disabled *)
  mutable cells : record array; (* [||] until the first record lands *)
  mutable filled : int;
  mutable cursor : int; (* the next cell to overwrite: the oldest *)
  mutable next_seq : int;
}

let ring =
  {
    m = Mutex.create ();
    size = 0;
    cells = [||];
    filled = 0;
    cursor = 0;
    next_seq = 0;
  }

(* the one-load-one-branch gate on the hot path; flipped only under the
   ring lock so [submit] never sees a half-built ring *)
let on = Atomic.make false

let enabled () = Atomic.get on

let configure ?(capacity = 1024) () =
  Mutex.protect ring.m (fun () ->
      ring.size <- max 1 capacity;
      ring.cells <- [||];
      ring.filled <- 0;
      ring.cursor <- 0;
      ring.next_seq <- 0;
      Atomic.set on true)

let disable () =
  Mutex.protect ring.m (fun () ->
      Atomic.set on false;
      ring.size <- 0;
      ring.cells <- [||];
      ring.filled <- 0;
      ring.cursor <- 0)

let capacity () = if Atomic.get on then ring.size else 0

let clear () =
  Mutex.protect ring.m (fun () ->
      ring.cells <- [||];
      ring.filled <- 0;
      ring.cursor <- 0;
      ring.next_seq <- 0)

let submit r =
  let ts_ns = Clock.now_ns () in
  if not (Atomic.get on) then { r with ts_ns }
  else begin
    Mutex.lock ring.m;
    (* [disable] may have raced us past the gate; the ring may be gone *)
    let n = ring.size in
    let r = { r with seq = (if n = 0 then r.seq else ring.next_seq); ts_ns } in
    if n > 0 then begin
      ring.next_seq <- ring.next_seq + 1;
      if Array.length ring.cells = 0 then ring.cells <- Array.make n r;
      ring.cells.(ring.cursor) <- r;
      ring.cursor <- (ring.cursor + 1) mod n;
      ring.filled <- min n (ring.filled + 1)
    end;
    Mutex.unlock ring.m;
    r
  end

(* the filled cells, newest first: walking from the oldest filled cell
   and consing leaves the one written last at the head *)
let newest_first () =
  Mutex.protect ring.m (fun () ->
      let n = ring.size and oldest = ring.cursor - ring.filled in
      let rec go k acc =
        if k = ring.filled then acc
        else go (k + 1) (ring.cells.((oldest + k + n) mod n) :: acc)
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
