module Crc32 = Iflow_fault.Crc32
module Beta = Iflow_stats.Dist.Beta

let magic = "IBL1"
let format_version = 1
let header_size = 28
let default_segment_bytes = 64 * 1024 * 1024

(* A record longer than this is damage, not data: the writer caps
   frames at the segment size, and a length varint decoded from a
   corrupt byte run must not make the reader skip gigabytes. *)
let max_payload = 1 lsl 28

type reason = Bad_crc | Truncated | Bad_varint | Unknown_tag

let reason_label = function
  | Bad_crc -> "bad_crc"
  | Truncated -> "truncated"
  | Bad_varint -> "bad_varint"
  | Unknown_tag -> "unknown_tag"

type error = {
  segment : string;
  offset : int;
  reason : reason;
  detail : string;
}

let error_message e =
  Printf.sprintf "%s@%d: %s (%s)" e.segment e.offset (reason_label e.reason)
    e.detail

exception Corrupt of string
exception Malformed of reason * string

let tag_attributed = 1
let tag_trace = 2
let tag_add_nodes = 3
let tag_add_edges = 4
let tag_remove_edges = 5

let segment_path base k = if k = 0 then base else base ^ "." ^ string_of_int k

(* ----- varints ----- *)

module Varint = struct
  let write b v =
    if v < 0 then invalid_arg "Binlog.Varint.write: negative value";
    let rec go v =
      if v < 0x80 then Buffer.add_char b (Char.unsafe_chr v)
      else begin
        Buffer.add_char b (Char.unsafe_chr (0x80 lor (v land 0x7f)));
        go (v lsr 7)
      end
    in
    go v
end

(* A read position in [buf], bounded by [limit]: a whole segment, or
   one payload inside it. *)
module Cursor = struct
  type t = { mutable buf : Bytes.t; mutable pos : int; mutable limit : int }

  let create () = { buf = Bytes.empty; pos = 0; limit = 0 }

  let set c buf ~pos ~limit =
    c.buf <- buf;
    c.pos <- pos;
    c.limit <- limit

  let remaining c = c.limit - c.pos
  let at_end c = c.pos >= c.limit

  (* [what] and [within] name the field and its bound in errors *)
  let varint_in ~what ~within c =
    let v = ref 0 and shift = ref 0 and fin = ref false in
    while not !fin do
      if c.pos >= c.limit then
        raise
          (Malformed (Truncated, Printf.sprintf "%s runs past the %s" what within));
      let byte = Char.code (Bytes.unsafe_get c.buf c.pos) in
      c.pos <- c.pos + 1;
      if !shift > 56 then
        raise (Malformed (Bad_varint, what ^ " longer than 63 bits"));
      v := !v lor ((byte land 0x7f) lsl !shift);
      shift := !shift + 7;
      if byte < 0x80 then fin := true
    done;
    if !v < 0 then raise (Malformed (Bad_varint, what ^ " overflows"));
    !v

  let varint c = varint_in ~what:"varint" ~within:"payload" c

  let float64 c =
    if c.limit - c.pos < 8 then
      raise (Malformed (Truncated, "float runs past the payload"));
    let v = Int64.float_of_bits (Bytes.get_int64_le c.buf c.pos) in
    c.pos <- c.pos + 8;
    v
end

(* ----- payload encoding ----- *)

let add_ints b vs =
  Varint.write b (List.length vs);
  List.iter (fun v -> Varint.write b v) vs

let add_pairs b pairs =
  Varint.write b (List.length pairs);
  List.iter
    (fun (x, y) ->
      Varint.write b x;
      Varint.write b y)
    pairs

let encode_payload b = function
  | Event.Attributed { sources; nodes; edges } ->
    Buffer.add_char b (Char.chr tag_attributed);
    add_ints b sources;
    add_ints b nodes;
    add_pairs b edges
  | Event.Trace { sources; times } ->
    Buffer.add_char b (Char.chr tag_trace);
    add_ints b sources;
    add_pairs b times
  | Event.Add_nodes { count } ->
    Buffer.add_char b (Char.chr tag_add_nodes);
    Varint.write b count
  | Event.Add_edges { edges; prior } ->
    Buffer.add_char b (Char.chr tag_add_edges);
    add_pairs b edges;
    Buffer.add_int64_le b (Int64.bits_of_float prior.Beta.alpha);
    Buffer.add_int64_le b (Int64.bits_of_float prior.Beta.beta)
  | Event.Remove_edges { edges } ->
    Buffer.add_char b (Char.chr tag_remove_edges);
    add_pairs b edges

(* ----- payload decoding ----- *)

let read_list c ~min_bytes_per_item read_item =
  let k = Cursor.varint c in
  (* each item needs at least [min_bytes_per_item] bytes, so an insane
     length from a corrupt byte fails here instead of looping *)
  if k * min_bytes_per_item > Cursor.remaining c then
    raise (Malformed (Truncated, "list length exceeds the payload"));
  let acc = ref [] in
  for _ = 1 to k do
    acc := read_item c :: !acc
  done;
  List.rev !acc

let read_ints c = read_list c ~min_bytes_per_item:1 Cursor.varint

let read_pairs c =
  read_list c ~min_bytes_per_item:2 (fun c ->
      let x = Cursor.varint c in
      let y = Cursor.varint c in
      (x, y))

let decode_event c =
  if Cursor.at_end c then raise (Malformed (Truncated, "empty payload"));
  let tag = Cursor.varint c in
  if tag = tag_attributed then begin
    let sources = read_ints c in
    let nodes = read_ints c in
    let edges = read_pairs c in
    Event.Attributed { sources; nodes; edges }
  end
  else if tag = tag_trace then begin
    let sources = read_ints c in
    let times = read_pairs c in
    Event.Trace { sources; times }
  end
  else if tag = tag_add_nodes then Event.Add_nodes { count = Cursor.varint c }
  else if tag = tag_add_edges then begin
    let edges = read_pairs c in
    let alpha = Cursor.float64 c in
    let beta = Cursor.float64 c in
    (* same gate as the JSONL decoder: a non-positive (or NaN) prior is
       a malformed event, not a graph change *)
    if not (alpha > 0.0 && beta > 0.0) then
      raise (Malformed (Bad_varint, "add_edges: prior parameters must be > 0"));
    Event.Add_edges { edges; prior = Beta.v alpha beta }
  end
  else if tag = tag_remove_edges then
    Event.Remove_edges { edges = read_pairs c }
  else
    raise (Malformed (Unknown_tag, Printf.sprintf "unknown event tag %d" tag))

(* ----- segment headers ----- *)

let make_header ~segment ~base_events =
  let h = Bytes.make header_size '\000' in
  Bytes.blit_string magic 0 h 0 4;
  Bytes.set h 4 (Char.chr format_version);
  Bytes.set_int64_le h 8 (Int64.of_int segment);
  Bytes.set_int64_le h 16 (Int64.of_int base_events);
  let crc = Crc32.update 0 (Bytes.unsafe_to_string h) 0 24 in
  Bytes.set_int32_le h 24 (Int32.of_int crc);
  h

let validate_header ~path ~index b =
  if Bytes.length b < header_size then
    raise (Corrupt (path ^ ": segment shorter than its header"));
  if Bytes.sub_string b 0 4 <> magic then
    raise (Corrupt (path ^ ": bad magic (not a binary event log)"));
  let v = Char.code (Bytes.get b 4) in
  if v <> format_version then
    raise (Corrupt (Printf.sprintf "%s: unsupported binlog version %d" path v));
  let stored = Int32.to_int (Bytes.get_int32_le b 24) land 0xFFFFFFFF in
  let computed = Crc32.update 0 (Bytes.unsafe_to_string b) 0 24 in
  if stored <> computed then
    raise
      (Corrupt
         (Printf.sprintf "%s: header CRC mismatch (stored %s, computed %s)"
            path (Crc32.to_hex stored) (Crc32.to_hex computed)));
  let seg = Int64.to_int (Bytes.get_int64_le b 8) in
  if seg <> index then
    raise
      (Corrupt
         (Printf.sprintf "%s: segment header says index %d, expected %d" path
            seg index))

let is_binlog path =
  match open_in_bin path with
  | exception Sys_error _ -> false
  | ic ->
    Fun.protect
      ~finally:(fun () -> close_in_noerr ic)
      (fun () ->
        match really_input_string ic 4 with
        | s -> s = magic
        | exception End_of_file -> false)

(* ----- writer ----- *)

module Writer = struct
  type t = {
    base : string;
    segment_bytes : int;
    payload : Buffer.t;
    head : Buffer.t;
    crc_buf : Bytes.t;
    mutable scratch : Bytes.t;
    mutable oc : out_channel;
    mutable seg_index : int;
    mutable seg_pos : int;
    mutable events : int;
    mutable closed : bool;
  }

  let open_segment base index ~base_events =
    let oc = open_out_bin (segment_path base index) in
    output_bytes oc (make_header ~segment:index ~base_events);
    oc

  let create ?(segment_bytes = default_segment_bytes) base =
    if segment_bytes < header_size + 64 then
      invalid_arg "Binlog.Writer.create: segment_bytes too small";
    {
      base;
      segment_bytes;
      payload = Buffer.create 256;
      head = Buffer.create 16;
      crc_buf = Bytes.create 4;
      scratch = Bytes.create 256;
      oc = open_segment base 0 ~base_events:0;
      seg_index = 0;
      seg_pos = header_size;
      events = 0;
      closed = false;
    }

  let events t = t.events
  let segments t = t.seg_index + 1

  let roll t =
    close_out t.oc;
    t.seg_index <- t.seg_index + 1;
    t.oc <- open_segment t.base t.seg_index ~base_events:t.events;
    t.seg_pos <- header_size

  let append t ev =
    if t.closed then invalid_arg "Binlog.Writer.append: writer is closed";
    Buffer.clear t.payload;
    encode_payload t.payload ev;
    let plen = Buffer.length t.payload in
    if plen > max_payload then
      invalid_arg "Binlog.Writer.append: oversized event";
    Buffer.clear t.head;
    Varint.write t.head plen;
    let frame = Buffer.length t.head + plen + 4 in
    (* a frame never spans segments; roll before writing when it would
       overflow (a lone oversized frame still goes out whole) *)
    if t.seg_pos > header_size && t.seg_pos + frame > t.segment_bytes then
      roll t;
    Buffer.output_buffer t.oc t.head;
    Buffer.output_buffer t.oc t.payload;
    if Bytes.length t.scratch < plen then
      t.scratch <- Bytes.create (max plen (2 * Bytes.length t.scratch));
    Buffer.blit t.payload 0 t.scratch 0 plen;
    let crc = Crc32.update 0 (Bytes.unsafe_to_string t.scratch) 0 plen in
    Bytes.set_int32_le t.crc_buf 0 (Int32.of_int crc);
    output_bytes t.oc t.crc_buf;
    t.seg_pos <- t.seg_pos + frame;
    t.events <- t.events + 1

  let close t =
    if not t.closed then begin
      t.closed <- true;
      close_out t.oc
    end
end

(* ----- reader ----- *)

module Reader = struct
  type t = {
    base : string;
    seg : Cursor.t; (* the current segment, whole; [pos] is the next frame *)
    payload : Cursor.t; (* the frame being decoded *)
    mutable seg_path : string;
    mutable next_index : int;
    mutable exhausted : bool;
    mutable events : int;
  }

  let load_file path =
    let ic = open_in_bin path in
    Fun.protect
      ~finally:(fun () -> close_in_noerr ic)
      (fun () ->
        let len = in_channel_length ic in
        let b = Bytes.create len in
        really_input ic b 0 len;
        b)

  let enter r ~index path =
    let b = load_file path in
    validate_header ~path ~index b;
    Cursor.set r.seg b ~pos:header_size ~limit:(Bytes.length b);
    r.seg_path <- path;
    r.next_index <- index + 1

  let open_ base =
    let r =
      {
        base;
        seg = Cursor.create ();
        payload = Cursor.create ();
        seg_path = base;
        next_index = 0;
        exhausted = false;
        events = 0;
      }
    in
    enter r ~index:0 base;
    r

  let advance r =
    let path = segment_path r.base r.next_index in
    if Sys.file_exists path then enter r ~index:r.next_index path
    else r.exhausted <- true

  (* [Frame]: a payload of [len] bytes and its CRC, just consumed; the
     frame starts at [start] *)
  type slot = Frame of { start : int; len : int } | Damaged of error

  (* The frame step [next] and [skip] share: consume one event slot,
     crossing segment boundaries; [None] at end of log. A bad payload
     CRC is [next]'s to find (the framing was intact); a bad length
     varint or a record running past its segment consumes the rest of
     the segment as one damaged slot, since the frame chain cannot be
     followed past it, and reading resumes at the next segment. *)
  let step r =
    let c = r.seg in
    while c.pos >= c.limit && not r.exhausted do
      advance r
    done;
    if r.exhausted then None
    else begin
      let start = c.pos in
      r.events <- r.events + 1;
      let damaged reason detail =
        c.pos <- c.limit;
        Some (Damaged { segment = r.seg_path; offset = start; reason; detail })
      in
      match Cursor.varint_in ~what:"record length" ~within:"segment end" c with
      | len when len >= 1 && len <= max_payload && len + 4 <= Cursor.remaining c
        ->
        c.pos <- c.pos + len + 4;
        Some (Frame { start; len })
      | len when len < 1 -> damaged Bad_varint "zero-length record"
      | len when len > max_payload ->
        damaged Bad_varint (Printf.sprintf "implausible record length %d" len)
      | len ->
        damaged Truncated
          (Printf.sprintf "record of %d bytes runs past the segment end" len)
      | exception Malformed (reason, detail) -> damaged reason detail
    end

  (* CRC check, tag dispatch, body decode, trailing-byte check *)
  let decode r ~start ~len =
    let error reason detail =
      Error { segment = r.seg_path; offset = start; reason; detail }
    in
    let buf = r.seg.buf and off = r.seg.pos - len - 4 in
    let stored =
      Int32.to_int (Bytes.get_int32_le buf (off + len)) land 0xFFFFFFFF
    in
    if Crc32.update 0 (Bytes.unsafe_to_string buf) off len <> stored then
      error Bad_crc
        (Printf.sprintf "payload CRC mismatch (stored %s)" (Crc32.to_hex stored))
    else begin
      let c = r.payload in
      Cursor.set c buf ~pos:off ~limit:(off + len);
      match decode_event c with
      | ev when Cursor.at_end c -> Ok ev
      | _ -> error Bad_varint "trailing bytes after the event body"
      | exception Malformed (reason, detail) -> error reason detail
    end

  let next r =
    match step r with
    | None -> None
    | Some (Damaged e) -> Some (Error e)
    | Some (Frame { start; len }) -> Some (decode r ~start ~len)

  let skip r n =
    if n < 0 then invalid_arg "Binlog.Reader.skip: negative count";
    let rec go k =
      if k = n then k else match step r with None -> k | Some _ -> go (k + 1)
    in
    go 0

  let events_seen r = r.events
  let segment r = r.seg_path
end
