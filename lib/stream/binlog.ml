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

module Cursor = struct
  type t = { mutable buf : Bytes.t; mutable pos : int; mutable limit : int }

  let create () = { buf = Bytes.empty; pos = 0; limit = 0 }

  let set c buf ~pos ~limit =
    c.buf <- buf;
    c.pos <- pos;
    c.limit <- limit

  let remaining c = c.limit - c.pos
  let at_end c = c.pos >= c.limit

  let varint c =
    let v = ref 0 and shift = ref 0 and fin = ref false in
    while not !fin do
      if c.pos >= c.limit then
        raise (Malformed (Truncated, "varint runs past the payload"));
      let byte = Char.code (Bytes.unsafe_get c.buf c.pos) in
      c.pos <- c.pos + 1;
      if !shift > 56 then
        raise (Malformed (Bad_varint, "varint longer than 63 bits"));
      v := !v lor ((byte land 0x7f) lsl !shift);
      shift := !shift + 7;
      if byte < 0x80 then fin := true
    done;
    if !v < 0 then raise (Malformed (Bad_varint, "varint overflows"));
    !v

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

(* ----- batches ----- *)

module Batch = struct
  type t = {
    mutable n : int;
    mutable cap : int;
    mutable src : Bytes.t array;
    mutable off : int array;
    mutable len : int array; (* -1 marks a framing-error slot *)
    mutable crc : int array;
    mutable foff : int array;
    mutable seg : string array;
    mutable errors : (int * error) list;
  }

  let create () =
    {
      n = 0;
      cap = 0;
      src = [||];
      off = [||];
      len = [||];
      crc = [||];
      foff = [||];
      seg = [||];
      errors = [];
    }

  let length b = b.n

  let ensure b cap =
    if b.cap < cap then begin
      let ncap = max cap (max 16 (2 * b.cap)) in
      let grow_i a =
        let na = Array.make ncap 0 in
        Array.blit a 0 na 0 b.cap;
        na
      in
      b.src <-
        (let na = Array.make ncap Bytes.empty in
         Array.blit b.src 0 na 0 b.cap;
         na);
      b.seg <-
        (let na = Array.make ncap "" in
         Array.blit b.seg 0 na 0 b.cap;
         na);
      b.off <- grow_i b.off;
      b.len <- grow_i b.len;
      b.crc <- grow_i b.crc;
      b.foff <- grow_i b.foff;
      b.cap <- ncap
    end
end

let frame_error (b : Batch.t) i = List.assoc_opt i b.errors

let check_crc (b : Batch.t) i =
  Crc32.update 0 (Bytes.unsafe_to_string b.src.(i)) b.off.(i) b.len.(i)
  = b.crc.(i)

let crc_error (b : Batch.t) i =
  {
    segment = b.seg.(i);
    offset = b.foff.(i);
    reason = Bad_crc;
    detail =
      Printf.sprintf "payload CRC mismatch (stored %s)" (Crc32.to_hex b.crc.(i));
  }

let decode_frame (b : Batch.t) i =
  match frame_error b i with
  | Some e -> Error e
  | None ->
    if not (check_crc b i) then Error (crc_error b i)
    else begin
      let c = Cursor.create () in
      Cursor.set c b.src.(i) ~pos:b.off.(i) ~limit:(b.off.(i) + b.len.(i));
      match decode_event c with
      | ev ->
        if Cursor.at_end c then Ok ev
        else
          Error
            {
              segment = b.seg.(i);
              offset = b.foff.(i);
              reason = Bad_varint;
              detail = "trailing bytes after the event body";
            }
      | exception Malformed (reason, detail) ->
        Error { segment = b.seg.(i); offset = b.foff.(i); reason; detail }
    end

(* ----- reader ----- *)

module Reader = struct
  type t = {
    base : string;
    mutable buf : Bytes.t;
    mutable blen : int;
    mutable pos : int;
    mutable seg_path : string;
    mutable next_index : int;
    mutable exhausted : bool;
    mutable events : int;
    mutable scratch : Batch.t option; (* lazily built, for [next]/[skip] *)
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

  let open_ base =
    let b = load_file base in
    validate_header ~path:base ~index:0 b;
    {
      base;
      buf = b;
      blen = Bytes.length b;
      pos = header_size;
      seg_path = base;
      next_index = 1;
      exhausted = false;
      events = 0;
      scratch = None;
    }

  let advance r =
    let path = segment_path r.base r.next_index in
    if Sys.file_exists path then begin
      let b = load_file path in
      validate_header ~path ~index:r.next_index b;
      r.buf <- b;
      r.blen <- Bytes.length b;
      r.pos <- header_size;
      r.seg_path <- path;
      r.next_index <- r.next_index + 1
    end
    else r.exhausted <- true

  let read_len r =
    let v = ref 0 and shift = ref 0 and fin = ref false in
    while not !fin do
      if r.pos >= r.blen then
        raise
          (Malformed (Truncated, "record length runs past the segment end"));
      let byte = Char.code (Bytes.unsafe_get r.buf r.pos) in
      r.pos <- r.pos + 1;
      if !shift > 56 then
        raise (Malformed (Bad_varint, "record length longer than 63 bits"));
      v := !v lor ((byte land 0x7f) lsl !shift);
      shift := !shift + 7;
      if byte < 0x80 then fin := true
    done;
    if !v < 0 then raise (Malformed (Bad_varint, "record length overflows"));
    !v

  let framing_error r (b : Batch.t) i ~start reason detail =
    b.src.(i) <- Bytes.empty;
    b.off.(i) <- 0;
    b.len.(i) <- -1;
    b.crc.(i) <- 0;
    b.foff.(i) <- start;
    b.seg.(i) <- r.seg_path;
    b.errors <-
      (i, { segment = r.seg_path; offset = start; reason; detail })
      :: b.errors;
    (* the frame chain is unrecoverable past this point — consume the
       rest of the segment as this one quarantined event and resume at
       the next segment boundary *)
    r.pos <- r.blen

  let read_batch r (b : Batch.t) ~max =
    if max < 1 then invalid_arg "Binlog.Reader.read_batch: max must be >= 1";
    b.n <- 0;
    b.errors <- [];
    Batch.ensure b max;
    while b.n < max && not r.exhausted do
      if r.pos >= r.blen then advance r
      else begin
        let start = r.pos in
        let i = b.n in
        (match read_len r with
        | len when len >= 1 && len <= max_payload && r.pos + len + 4 <= r.blen
          ->
          b.src.(i) <- r.buf;
          b.off.(i) <- r.pos;
          b.len.(i) <- len;
          b.crc.(i) <-
            Int32.to_int (Bytes.get_int32_le r.buf (r.pos + len))
            land 0xFFFFFFFF;
          b.foff.(i) <- start;
          b.seg.(i) <- r.seg_path;
          r.pos <- r.pos + len + 4
        | len ->
          let reason, detail =
            if len < 1 then (Bad_varint, "zero-length record")
            else if len > max_payload then
              (Bad_varint, Printf.sprintf "implausible record length %d" len)
            else
              ( Truncated,
                Printf.sprintf "record of %d bytes runs past the segment end"
                  len )
          in
          framing_error r b i ~start reason detail
        | exception Malformed (reason, detail) ->
          framing_error r b i ~start reason detail);
        b.n <- b.n + 1;
        r.events <- r.events + 1
      end
    done;
    b.n > 0

  let scratch_batch r =
    match r.scratch with
    | Some b -> b
    | None ->
      let b = Batch.create () in
      r.scratch <- Some b;
      b

  let next r =
    let b = scratch_batch r in
    if read_batch r b ~max:1 then Some (decode_frame b 0) else None

  let skip r n =
    if n < 0 then invalid_arg "Binlog.Reader.skip: negative count";
    let b = scratch_batch r in
    let remaining = ref n in
    let progressing = ref true in
    while !remaining > 0 && !progressing do
      if read_batch r b ~max:(min !remaining 4096) then
        remaining := !remaining - b.Batch.n
      else progressing := false
    done;
    n - !remaining

  let events_seen r = r.events
  let segment r = r.seg_path
end
