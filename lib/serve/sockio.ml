module Clock = Iflow_obs.Clock

let window_bytes = 8192

(* Received bytes live in [buf.(pos) .. buf.(stop - 1)]. A line longer
   than the window spills full windows into [spilled] (newest first)
   and continues in a fresh one, so neither growing nor consuming a
   line ever re-copies what was already received. *)
type reader = {
  fd : Unix.file_descr;
  mutable buf : Bytes.t;
  mutable pos : int;
  mutable stop : int;
  mutable spilled : Bytes.t list;
  mutable spilled_len : int;
  max_line_bytes : int;
  mutable eof : bool;
  mutable budget_ns : int; (* per-request deadline; 0 = none *)
  mutable deadline_ns : int; (* 0 = not armed for this request *)
  mutable expired : bool;
}

let max_line_bytes = 1 lsl 20

let reader ?(max_line_bytes = max_line_bytes) fd =
  {
    fd;
    buf = Bytes.create window_bytes;
    pos = 0;
    stop = 0;
    spilled = [];
    spilled_len = 0;
    max_line_bytes;
    eof = false;
    budget_ns = 0;
    deadline_ns = 0;
    expired = false;
  }

(* the guard's limits: one window of silence, four of a whole request *)
let request_windows = 4

let guard r ~window_ms =
  let s = float_of_int window_ms /. 1000.0 in
  (try
     Unix.setsockopt_float r.fd Unix.SO_RCVTIMEO s;
     Unix.setsockopt_float r.fd Unix.SO_SNDTIMEO s
   with Unix.Unix_error _ | Invalid_argument _ -> ());
  r.budget_ns <- request_windows * window_ms * 1_000_000

let end_request r = r.deadline_ns <- 0
let expired r = r.expired

type line = Line of string | Eof | Too_long | Timeout

exception Timed_out

(* One read into [dst]; 0 = end of stream. EAGAIN/EWOULDBLOCK means the
   fd carries SO_RCVTIMEO and the peer sent nothing inside it. A read
   that does bring bytes arms the request's deadline (its first read)
   or checks it (every later one), so a peer dribbling bytes fast
   enough to keep each read alive still times out. *)
let rec recv r dst off len =
  match Unix.read r.fd dst off len with
  | 0 -> 0
  | n ->
    if r.budget_ns > 0 then begin
      let now = Clock.now_ns () in
      if r.deadline_ns = 0 then r.deadline_ns <- now + r.budget_ns
      else if now >= r.deadline_ns then begin
        r.expired <- true;
        raise Timed_out
      end
    end;
    n
  | exception Unix.Unix_error (Unix.EINTR, _, _) -> recv r dst off len
  | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) ->
    raise Timed_out

(* Make room at the end of the window: slide the pending bytes to the
   front, or, when they fill it, spill the whole window. *)
let make_room r =
  if r.stop = Bytes.length r.buf then
    if r.pos > 0 then begin
      Bytes.blit r.buf r.pos r.buf 0 (r.stop - r.pos);
      r.stop <- r.stop - r.pos;
      r.pos <- 0
    end
    else begin
      r.spilled <- r.buf :: r.spilled;
      r.spilled_len <- r.spilled_len + r.stop;
      r.buf <- Bytes.create window_bytes;
      r.stop <- 0
    end

(* read more bytes; returns the window index the new ones start at *)
let refill r =
  make_room r;
  let from = r.stop in
  (match recv r r.buf from (Bytes.length r.buf - from) with
  | 0 -> r.eof <- true
  | n -> r.stop <- from + n);
  from

(* consume the pending bytes before window index [i] as one string *)
let take r i =
  let out = Bytes.create (r.spilled_len + i - r.pos) in
  ignore
    (List.fold_left
       (fun off b ->
         let off = off - Bytes.length b in
         Bytes.blit b 0 out off (Bytes.length b);
         off)
       r.spilled_len r.spilled);
  Bytes.blit r.buf r.pos out r.spilled_len (i - r.pos);
  r.spilled <- [];
  r.spilled_len <- 0;
  r.pos <- i;
  Bytes.unsafe_to_string out

let strip_cr s =
  let n = String.length s in
  if n > 0 && s.[n - 1] = '\r' then String.sub s 0 (n - 1) else s

let rec newline r i =
  if i >= r.stop then -1
  else if Bytes.unsafe_get r.buf i = '\n' then i
  else newline r (i + 1)

let read_line r =
  (* [scan]: the first window index not yet searched for a newline *)
  let rec go scan =
    let i = newline r scan in
    if i >= 0 then begin
      let line = take r i in
      r.pos <- i + 1;
      Line (strip_cr line)
    end
    else if r.spilled_len + r.stop - r.pos > r.max_line_bytes then Too_long
    else if r.eof then
      if r.spilled_len + r.stop - r.pos = 0 then Eof
      else
        (* final unterminated line: accept it (netcat-friendly) *)
        Line (strip_cr (take r r.stop))
    else
      match refill r with
      | from -> go from
      | exception Timed_out -> Timeout
  in
  go r.pos

let read_exactly r n =
  (* a body follows its header line, so nothing is spilled here *)
  let have = r.stop - r.pos in
  if have >= n then Some (take r (r.pos + n))
  else begin
    let out = Bytes.create n in
    Bytes.blit r.buf r.pos out 0 have;
    r.pos <- r.stop;
    let rec go got =
      if got = n then Some (Bytes.unsafe_to_string out)
      else
        match recv r out got (n - got) with
        | 0 ->
          r.eof <- true;
          None
        | k -> go (got + k)
        | exception Timed_out -> None
    in
    go have
  end

let write_all fd s =
  let b = Bytes.unsafe_of_string s in
  let rec go off =
    if off < Bytes.length b then begin
      let n =
        try Unix.write fd b off (Bytes.length b - off)
        with Unix.Unix_error (Unix.EINTR, _, _) -> 0
      in
      go (off + n)
    end
  in
  go 0
