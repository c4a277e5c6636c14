(* Tests for the network serving layer (lib/serve) and the engine
   thread-safety it rests on.

   The acceptance criteria pinned here:
   - serve ≡ batch: answers delivered over a socket parse back
     bit-identical to Engine.query on the same model, seed, and config,
     regardless of client concurrency;
   - bounded backlog: with the execution slots held, exactly
     queue_capacity requests wait and the next one is refused
     immediately with a typed over_capacity response;
   - quotas: a tenant's token bucket grants its burst and then denies
     with quota_exceeded and a retry hint, without touching other
     tenants;
   - hot-swap consistency: under concurrent query traffic and live
     evidence ingestion, every answer's (version, digest) pair is one
     the learner actually published (no torn version), and a failed
     swap degrades the server instead of killing it;
   - concurrent Engine.query callers (threads sharing one engine,
     racing cache hits against swaps) always observe one of the models
     ever installed, bit for bit. *)

module Rng = Iflow_stats.Rng
module Beta = Iflow_stats.Dist.Beta
module Gen = Iflow_graph.Gen
module Digraph = Iflow_graph.Digraph
module Icm = Iflow_core.Icm
module Beta_icm = Iflow_core.Beta_icm
module Cascade = Iflow_core.Cascade
module Engine = Iflow_engine.Engine
module Query = Iflow_engine.Query
module Jsonl = Iflow_engine.Jsonl
module Event = Iflow_stream.Event
module Online = Iflow_stream.Online
module Snapshot = Iflow_stream.Snapshot
module Runner = Iflow_stream.Runner
module Fail = Iflow_fault.Fail
module Bqueue = Iflow_serve.Bqueue
module Slots = Iflow_serve.Slots
module Quota = Iflow_serve.Quota
module Sockio = Iflow_serve.Sockio
module Http = Iflow_serve.Http
module Wire = Iflow_serve.Wire
module Server = Iflow_serve.Server
module Flight = Iflow_obs.Flight
module Trace = Iflow_obs.Trace

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)
let check_string = Alcotest.(check string)
let check_float msg a b = Alcotest.(check (float 0.0)) msg a b

(* a small model answering queries quickly under a tight MCMC budget *)
let five_node_icm seed =
  let rng = Rng.create seed in
  let g = Gen.gnm rng ~nodes:5 ~edges:12 in
  Icm.create g (Array.init 12 (fun _ -> 0.1 +. (0.8 *. Rng.uniform rng)))

let fast_config =
  {
    Engine.default_config with
    Engine.chains = 2;
    burn_in = 50;
    thin = 2;
    round_samples = 100;
    max_samples = 400;
    rhat_target = 10.0;
    (* effectively unreachable: every query runs to max_samples, so the
       sample count is deterministic *)
    mcse_target = 1e-12;
  }

let spin ?(timeout_s = 10.0) msg cond =
  let t0 = Unix.gettimeofday () in
  let rec go () =
    if cond () then ()
    else if Unix.gettimeofday () -. t0 > timeout_s then
      Alcotest.failf "timed out waiting for %s" msg
    else begin
      Thread.yield ();
      go ()
    end
  in
  go ()

(* ---------- Bqueue ---------- *)

let test_bqueue_order () =
  let q = Bqueue.create 8 in
  List.iter (fun i -> check_bool "push" true (Bqueue.try_push q i)) [ 1; 2; 3 ];
  check_int "fifo 1" 1 (Option.get (Bqueue.pop q));
  check_int "fifo 2" 2 (Option.get (Bqueue.pop q));
  check_int "fifo 3" 3 (Option.get (Bqueue.pop q))

let test_bqueue_bounded () =
  let q = Bqueue.create 2 in
  check_bool "1 fits" true (Bqueue.try_push q 1);
  check_bool "2 fits" true (Bqueue.try_push q 2);
  check_bool "3 refused" false (Bqueue.try_push q 3);
  ignore (Bqueue.pop q);
  check_bool "space again" true (Bqueue.try_push q 3)

let test_bqueue_close () =
  let q = Bqueue.create 4 in
  ignore (Bqueue.try_push q 1);
  Bqueue.close q;
  check_bool "closed refuses pushes" false (Bqueue.try_push q 2);
  (* drains what was admitted, then reports end-of-stream *)
  check_int "drains" 1 (Option.get (Bqueue.pop q));
  check_bool "then None" true (Bqueue.pop q = None)

let test_bqueue_blocking_pop () =
  let q = Bqueue.create 4 in
  let got = ref None in
  let th = Thread.create (fun () -> got := Bqueue.pop q) () in
  Thread.yield ();
  ignore (Bqueue.try_push q 42);
  Thread.join th;
  check_int "woken with the value" 42 (Option.get !got);
  (* close wakes a parked consumer too *)
  let th = Thread.create (fun () -> got := Bqueue.pop q) () in
  Thread.yield ();
  Bqueue.close q;
  Thread.join th;
  check_bool "woken with None" true (!got = None)

let test_bqueue_validation () =
  match Bqueue.create 0 with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "capacity 0 accepted"

(* ---------- Quota (synthetic clock: decisions are deterministic) ---------- *)

let test_quota_burst_then_deny () =
  let q = Quota.create { Quota.rate = 10.0; burst = 3.0 } in
  let admit now = Quota.admit q ~now_ns:now ~tenant:"alice" in
  for i = 1 to 3 do
    match admit 0 with
    | Quota.Granted -> ()
    | Quota.Denied _ -> Alcotest.failf "burst request %d denied" i
  done;
  (match admit 0 with
  | Quota.Denied { retry_after_ns } ->
    (* an empty bucket at 10 tokens/s refills one token in 100 ms *)
    check_int "retry hint" 100_000_000 retry_after_ns
  | Quota.Granted -> Alcotest.fail "4th burst request granted");
  (* 100 ms later exactly one token has refilled *)
  (match admit 100_000_000 with
  | Quota.Granted -> ()
  | Quota.Denied _ -> Alcotest.fail "refilled token denied");
  match admit 100_000_000 with
  | Quota.Denied _ -> ()
  | Quota.Granted -> Alcotest.fail "second token granted after one refill"

let test_quota_tenants_independent () =
  let q = Quota.create { Quota.rate = 1.0; burst = 1.0 } in
  (match Quota.admit q ~now_ns:0 ~tenant:"a" with
  | Quota.Granted -> ()
  | Quota.Denied _ -> Alcotest.fail "a denied");
  (match Quota.admit q ~now_ns:0 ~tenant:"a" with
  | Quota.Denied _ -> ()
  | Quota.Granted -> Alcotest.fail "a over-granted");
  (match Quota.admit q ~now_ns:0 ~tenant:"b" with
  | Quota.Granted -> ()
  | Quota.Denied _ -> Alcotest.fail "b starved by a's bucket");
  check_int "two buckets" 2 (Quota.tenants q)

let test_quota_refill_caps_at_burst () =
  let q = Quota.create { Quota.rate = 1000.0; burst = 2.0 } in
  (* a long quiet period must not accumulate more than [burst] tokens *)
  ignore (Quota.admit q ~now_ns:0 ~tenant:"t");
  check_float "capped" 2.0
    (Quota.tokens q ~now_ns:3_600_000_000_000 ~tenant:"t")

let test_quota_validation () =
  (match Quota.create { Quota.rate = 0.0; burst = 1.0 } with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "rate 0 accepted");
  match Quota.create { Quota.rate = 1.0; burst = 0.5 } with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "burst < 1 accepted"

(* ---------- Slots ---------- *)

let admission_string = function
  | Slots.Run -> "run"
  | Slots.Full -> "full"
  | Slots.Closed -> "closed"

let test_slots_fifo () =
  let t = Slots.create ~slots:1 ~capacity:8 in
  check_string "first takes the slot" "run" (admission_string (Slots.enter t));
  let order = ref [] in
  let m = Mutex.create () in
  (* each waiter queues only after the previous one is in line, so
     arrival order is known *)
  let waiters =
    List.map
      (fun i ->
        let th =
          Thread.create
            (fun () ->
              match Slots.enter t with
              | Slots.Run ->
                Mutex.protect m (fun () -> order := i :: !order);
                Slots.leave t
              | v -> Alcotest.failf "waiter %d: %s" i (admission_string v))
            ()
        in
        spin "waiter in line" (fun () -> Slots.waiting t = i);
        th)
      [ 1; 2; 3; 4; 5 ]
  in
  Slots.leave t;
  List.iter Thread.join waiters;
  Alcotest.(check (list int)) "arrival order" [ 1; 2; 3; 4; 5 ] (List.rev !order);
  check_int "line empty" 0 (Slots.waiting t);
  check_string "slot free again" "run" (admission_string (Slots.enter t))

let test_slots_full () =
  let t = Slots.create ~slots:2 ~capacity:2 in
  check_string "slot 1" "run" (admission_string (Slots.enter t));
  check_string "slot 2" "run" (admission_string (Slots.enter t));
  let ran = Atomic.make 0 in
  let waiters =
    List.init 2 (fun _ ->
        Thread.create
          (fun () ->
            match Slots.enter t with
            | Slots.Run ->
              Atomic.incr ran;
              Slots.leave t
            | v -> Alcotest.failf "waiter: %s" (admission_string v))
          ())
  in
  spin "line full" (fun () -> Slots.waiting t = 2);
  check_string "refused at capacity" "full" (admission_string (Slots.enter t));
  check_int "refusal never queued" 2 (Slots.waiting t);
  Slots.leave t;
  Slots.leave t;
  List.iter Thread.join waiters;
  check_int "both waiters ran" 2 (Atomic.get ran)

let test_slots_close () =
  let t = Slots.create ~slots:1 ~capacity:4 in
  let release = Atomic.make false in
  let holding = Atomic.make false in
  let holder_done = Atomic.make false in
  let holder =
    Thread.create
      (fun () ->
        match Slots.enter t with
        | Slots.Run ->
          Atomic.set holding true;
          while not (Atomic.get release) do
            Thread.yield ()
          done;
          Atomic.set holder_done true;
          Slots.leave t
        | v -> Alcotest.failf "holder: %s" (admission_string v))
      ()
  in
  spin "holder running" (fun () -> Atomic.get holding);
  let verdicts = Array.make 3 Slots.Run in
  let waiters =
    List.init 3 (fun i ->
        let th = Thread.create (fun () -> verdicts.(i) <- Slots.enter t) () in
        spin "waiter in line" (fun () -> Slots.waiting t = i + 1);
        th)
  in
  Slots.close t;
  List.iter Thread.join waiters;
  Array.iteri
    (fun i v ->
      check_string (Printf.sprintf "waiter %d released" i) "closed"
        (admission_string v))
    verdicts;
  check_int "line emptied" 0 (Slots.waiting t);
  check_string "arrival after close" "closed" (admission_string (Slots.enter t));
  check_bool "holder still running" false (Atomic.get holder_done);
  Atomic.set release true;
  Thread.join holder;
  check_bool "holder finished" true (Atomic.get holder_done);
  check_string "still closed" "closed" (admission_string (Slots.enter t))

let test_slots_validation () =
  (match Slots.create ~slots:0 ~capacity:1 with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "0 slots accepted");
  match Slots.create ~slots:1 ~capacity:0 with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "capacity 0 accepted"

(* ---------- Sockio / Http over a pipe ---------- *)

let with_pipe_reader ?max_line_bytes bytes f =
  let r_fd, w_fd = Unix.pipe () in
  Fun.protect
    ~finally:(fun () ->
      (try Unix.close r_fd with Unix.Unix_error _ -> ());
      try Unix.close w_fd with Unix.Unix_error _ -> ())
    (fun () ->
      Sockio.write_all w_fd bytes;
      Unix.close w_fd;
      f (Sockio.reader ?max_line_bytes r_fd))

let test_sockio_lines () =
  with_pipe_reader "a\nbb\r\n\nfinal" (fun r ->
      check_string "lf" "a" (match Sockio.read_line r with
        | Sockio.Line l -> l | _ -> "<eof>");
      check_string "crlf stripped" "bb" (match Sockio.read_line r with
        | Sockio.Line l -> l | _ -> "<eof>");
      check_string "empty line" "" (match Sockio.read_line r with
        | Sockio.Line l -> l | _ -> "<eof>");
      check_string "unterminated tail" "final" (match Sockio.read_line r with
        | Sockio.Line l -> l | _ -> "<eof>");
      check_bool "then eof" true (Sockio.read_line r = Sockio.Eof))

let test_sockio_too_long () =
  (* no terminator: the reader must refuse once the accumulated bytes
     exceed the cap rather than buffering without bound *)
  with_pipe_reader ~max_line_bytes:8 (String.make 64 'x') (fun r ->
      check_bool "refused" true (Sockio.read_line r = Sockio.Too_long))

(* [payload] written from a second thread into one end of a socketpair
   (far more than the socket buffers hold), read through a reader on
   the other *)
let with_socketpair_reader payload f =
  let a, b = Unix.socketpair Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Fun.protect
    ~finally:(fun () ->
      (try Unix.close a with Unix.Unix_error _ -> ());
      try Unix.close b with Unix.Unix_error _ -> ())
    (fun () ->
      let writer =
        Thread.create
          (fun () ->
            Sockio.write_all b payload;
            Unix.shutdown b Unix.SHUTDOWN_SEND)
          ()
      in
      Fun.protect ~finally:(fun () -> Thread.join writer) (fun () ->
          f (Sockio.reader a)))

let test_sockio_long_line_linear () =
  (* one copy of the line, not one per refill: a 1 MiB line (the
     default cap) used to allocate ~72x its length *)
  let len = 1 lsl 20 in
  let line = String.init len (fun i -> Char.chr (97 + (i mod 26))) in
  with_socketpair_reader (line ^ "\n") (fun r ->
      let before = Gc.allocated_bytes () in
      let got = Sockio.read_line r in
      let allocated = Gc.allocated_bytes () -. before in
      check_bool "line intact" true (got = Sockio.Line line);
      check_bool
        (Printf.sprintf "allocated %.0f bytes <= 4x the line" allocated)
        true
        (allocated <= 4.0 *. float_of_int len);
      check_bool "then eof" true (Sockio.read_line r = Sockio.Eof))

let test_sockio_lines_across_windows () =
  (* lines spanning many 8 KiB reads, back to back in one stream, with
     CRLF and LF ends wherever the reads happen to split them, an empty
     line and an unterminated tail *)
  let a = String.make 20_000 'a' in
  let b = String.make 8191 'b' in
  let c = String.make 70_001 'c' in
  let lines = [ a; b; ""; c; "d" ] in
  let payload = String.concat "" [ a; "\r\n"; b; "\n\n"; c; "\r\n"; "d" ] in
  with_socketpair_reader payload (fun r ->
      List.iteri
        (fun i want ->
          match Sockio.read_line r with
          | Sockio.Line got ->
            check_int (Printf.sprintf "line %d length" i) (String.length want)
              (String.length got);
            check_bool (Printf.sprintf "line %d bytes" i) true (got = want)
          | _ -> Alcotest.failf "line %d missing" i)
        lines;
      check_bool "then eof" true (Sockio.read_line r = Sockio.Eof))

let test_http_parse () =
  let body = {|{"type":"flow","src":0,"dst":1}|} in
  let raw =
    Printf.sprintf
      "POST /query HTTP/1.1\r\nHost: x\r\nX-Tenant: Alice\r\n\
       Content-Length: %d\r\n\r\n%s"
      (String.length body) body
  in
  with_pipe_reader raw (fun r ->
      match Sockio.read_line r with
      | Sockio.Line first -> (
        check_bool "verb sniffed" true (Http.is_http_verb first);
        match Http.read_request r ~first_line:first with
        | Http.Request req ->
          check_string "method" "POST" req.Http.meth;
          check_string "path" "/query" req.Http.path;
          check_string "body" body req.Http.body;
          check_string "header case-insensitive" "Alice"
            (Option.get (Http.header req "x-TENANT"))
        | Http.Malformed m | Http.Overflow m -> Alcotest.fail m)
      | _ -> Alcotest.fail "no request line")

let test_http_rejects () =
  check_bool "jsonl is not http" false
    (Http.is_http_verb {|{"type":"flow"}|});
  with_pipe_reader "GET /x HTTP/1.1\r\nbroken header\r\n\r\n" (fun r ->
      match Sockio.read_line r with
      | Sockio.Line first -> (
        match Http.read_request r ~first_line:first with
        | Http.Malformed _ -> ()
        | _ -> Alcotest.fail "accepted header without a colon")
      | _ -> Alcotest.fail "no request line");
  with_pipe_reader "POST /x HTTP/1.1\r\nContent-Length: 99\r\n\r\nhi"
    (fun r ->
      match Sockio.read_line r with
      | Sockio.Line first -> (
        match Http.read_request ~max_body_bytes:10 r ~first_line:first with
        | Http.Overflow _ -> ()
        | _ -> Alcotest.fail "accepted oversized body")
      | _ -> Alcotest.fail "no request line");
  (* RFC 9110 frames by 1*DIGIT only: a peer reading "0x5" as 5 would
     split this stream differently *)
  with_pipe_reader "POST /x HTTP/1.1\r\nContent-Length: 0x5\r\n\r\nhello"
    (fun r ->
      match Sockio.read_line r with
      | Sockio.Line first -> (
        match Http.read_request r ~first_line:first with
        | Http.Malformed _ -> ()
        | _ -> Alcotest.fail "framed a body by a hex Content-Length")
      | _ -> Alcotest.fail "no request line");
  List.iter
    (fun s -> check_bool s true (Http.decimal s = None))
    [ ""; "0x10"; "1_000"; "+5"; "-5"; "0b11"; " 5"; "5 "; "1e3";
      "99999999999999999999" ];
  check_bool "leading zeros" true (Http.decimal "007" = Some 7);
  check_bool "max_int" true (Http.decimal (string_of_int max_int) = Some max_int)

(* ---------- Wire ---------- *)

(* every plan an answer can carry, the cascade sampler's included,
   decodes back to an equal value *)
let test_wire_result_roundtrip () =
  List.iter
    (fun plan ->
  let r =
    {
      Engine.estimate = 0.1 +. 0.2;
      rhat = 1.000000000000004;
      ess = 1963.0960471382934;
      mcse = Float.min_float;
      total_samples = 4000;
      chains_used = 4;
      cached = true;
      partial = false;
      model_digest = "abc\"\\def";
      plan;
    }
  in
  let line = Wire.result_line ~id:"q-1" ~version:7 ~degraded:false r in
  match Jsonl.parse line with
  | Error msg -> Alcotest.failf "unparseable: %s" msg
  | Ok json -> (
    match Wire.parsed_result json with
    | Error msg -> Alcotest.failf "decode: %s" msg
    | Ok (r', version) ->
      (* bit-for-bit, not approximately *)
      check_bool "estimate bits" true
        (Int64.equal (Int64.bits_of_float r.Engine.estimate)
           (Int64.bits_of_float r'.Engine.estimate));
      check_bool "rhat bits" true
        (Int64.equal (Int64.bits_of_float r.Engine.rhat)
           (Int64.bits_of_float r'.Engine.rhat));
      check_bool "mcse bits" true
        (Int64.equal (Int64.bits_of_float r.Engine.mcse)
           (Int64.bits_of_float r'.Engine.mcse));
      check_int "samples" r.Engine.total_samples r'.Engine.total_samples;
      check_int "chains" r.Engine.chains_used r'.Engine.chains_used;
      check_bool "cached" r.Engine.cached r'.Engine.cached;
      check_string "digest escaping" r.Engine.model_digest
        r'.Engine.model_digest;
      check_bool "plan round-trips" true (r'.Engine.plan = r.Engine.plan);
      check_int "version" 7 (Option.get version);
      check_string "id echo" "q-1"
        (match Jsonl.member "id" json with
        | Some (Jsonl.Str s) -> s
        | _ -> "<missing>")))
    [
      Engine.Plan_mh { fallback = Some "unsound_join"; sampler = Engine.Mh };
      Engine.Plan_mh { fallback = Some "unsound_join"; sampler = Engine.Direct };
      Engine.Plan_mh { fallback = None; sampler = Engine.Direct };
    ]

let test_wire_nonfinite () =
  (* rhat is nan when every sample agrees (unreachable pair); the line
     must stay valid JSON and parse back as nan *)
  let r =
    {
      Engine.estimate = 0.0;
      rhat = Float.nan;
      ess = Float.infinity;
      mcse = 0.0;
      total_samples = 400;
      chains_used = 2;
      cached = false;
      partial = false;
      model_digest = "d";
      plan = Engine.Plan_exact { cone_nodes = 3 };
    }
  in
  let line = Wire.result_line r in
  match Jsonl.parse line with
  | Error msg -> Alcotest.failf "non-finite result not valid JSON: %s" msg
  | Ok json -> (
    match Wire.parsed_result json with
    | Error msg -> Alcotest.failf "decode: %s" msg
    | Ok (r', _) ->
      check_bool "rhat nan" true (Float.is_nan r'.Engine.rhat);
      check_bool "ess nan" true (Float.is_nan r'.Engine.ess);
      check_float "estimate" 0.0 r'.Engine.estimate;
      check_bool "exact plan round-trips" true (r'.Engine.plan = r.Engine.plan))

let test_wire_error_line () =
  let line = Wire.error_line ~id:"x" ~retry_after_ms:250 Wire.Quota_exceeded
      "tenant \"a\" over quota" in
  match Jsonl.parse line with
  | Error msg -> Alcotest.failf "unparseable: %s" msg
  | Ok json ->
    check_string "code" "quota_exceeded"
      (match Jsonl.member "error" json with
      | Some (Jsonl.Str s) -> s
      | _ -> "<missing>");
    check_int "retry hint" 250
      (match Jsonl.member "retry_after_ms" json with
      | Some (Jsonl.Num f) -> int_of_float f
      | _ -> -1)

let test_decode_errors_carry_line_numbers () =
  (match Query.of_line ~lineno:41 "{\"type\":\"flow\"}" with
  | Error msg ->
    check_bool "query error has lineno" true
      (String.length msg >= 8 && String.sub msg 0 8 = "line 41:")
  | Ok _ -> Alcotest.fail "decoded a flow query without src/dst");
  match Event.of_line ~lineno:7 "{\"type\":\"nonsense\"}" with
  | Error msg ->
    check_bool "event error has lineno" true
      (String.length msg >= 7 && String.sub msg 0 7 = "line 7:")
  | Ok _ -> Alcotest.fail "decoded a nonsense event"

(* ---------- decoder robustness ---------- *)

(* an integer a float cannot hold exactly must not decode as some
   other node id *)
let test_out_of_range_ints_rejected () =
  let check_error what = function
    | Error _ -> ()
    | Ok _ -> Alcotest.failf "decoded %s" what
  in
  List.iter
    (fun line -> check_error line (Query.of_line line))
    [
      {|{"type":"flow","src":1e300,"dst":2}|};
      {|{"type":"flow","src":18446744073709551616,"dst":2}|};
    ];
  check_error "an attributed event naming node 2^64"
    (Event.of_line
       {|{"type":"attributed","sources":[18446744073709551616],"nodes":[0],"edges":[]}|});
  let to_int f = Jsonl.to_int (Jsonl.Num f) in
  check_bool "2^53 is exact" true (to_int 9007199254740992.0 = Some (1 lsl 53));
  check_bool "-2^53 is exact" true
    (to_int (-9007199254740992.0) = Some (-(1 lsl 53)));
  check_bool "past 2^53 is not" true (to_int 9007199254740994.0 = None);
  check_bool "fractions are not" true (to_int 0.5 = None)

let valid_lines =
  [|
    {|{"type":"flow","src":0,"dst":5}|};
    {|{"id":7,"type":"community","src":0,"sinks":[3,4],"deadline_ms":50}|};
    {|{"type":"joint","flows":[[0,3],[1,4]],"conditions":[[0,1,true]]}|};
    {|{"type":"attributed","sources":[0],"nodes":[0,3,5],"edges":[[0,3],[3,5]]}|};
    {|{"type":"trace","sources":[0],"times":[[3,1],[5,2]]}|};
    {|{"type":"add_edges","edges":[[1,7],[2,7]],"alpha":1,"beta":2.5}|};
    {|{"estimate":0.25,"rhat":1.0,"ess":0.0,"mcse":0.0,"samples":0,"chains":0,"cached":false,"plan":"exact","plan_cone":3,"plan_validated":false,"version":2,"digest":"ab\u00e9"}|};
  |]

let test_fuzz_seeds_decode () =
  Array.iter
    (fun line ->
      let ok = Result.is_ok in
      check_bool line true
        (ok (Query.of_line line)
        || ok (Event.of_line line)
        || ok (Result.bind (Jsonl.parse line) Wire.parsed_result)))
    valid_lines

(* one of [seeds] with 1–4 byte edits: overwrite, delete, insert,
   truncate *)
let mutated seeds =
  let open QCheck.Gen in
  let edit s (op, pos, c) =
    let n = String.length s in
    let i = if n = 0 then 0 else pos mod n in
    match op with
    | 0 when n > 0 -> String.mapi (fun j x -> if j = i then c else x) s
    | 1 when n > 0 -> String.sub s 0 i ^ String.sub s (i + 1) (n - i - 1)
    | 2 -> String.sub s 0 i ^ String.make 1 c ^ String.sub s i (n - i)
    | _ -> String.sub s 0 i
  in
  map2 (List.fold_left edit) (oneofa seeds)
    (list_size (int_range 1 4) (triple (int_bound 3) nat char))

let mutated_line = mutated valid_lines

(* every decoder answers Ok or Error; an exception fails the property *)
let decoders_total line =
  let guard what f =
    match f () with
    | Ok _ | Error _ -> ()
    | exception e ->
      QCheck.Test.fail_reportf "%s raised %s on %S" what (Printexc.to_string e)
        line
  in
  guard "Jsonl.parse" (fun () -> Jsonl.parse line);
  guard "Query.of_line" (fun () -> Query.of_line line);
  guard "Event.of_line" (fun () -> Event.of_line ~lineno:1 line);
  guard "Wire.parsed_result" (fun () ->
      Result.bind (Jsonl.parse line) Wire.parsed_result);
  true

let prop_decoders_never_raise =
  QCheck.Test.make ~count:2000 ~name:"decoders return Ok/Error on any bytes"
    QCheck.(
      make ~print:Print.string
        Gen.(frequency [ (1, string_size (int_bound 64)); (3, mutated_line) ]))
    decoders_total

(* an integer literal past 2^53, in plain or exponent form *)
let out_of_range_literal =
  let open QCheck.Gen in
  let digits = string_size ~gen:(char_range '0' '9') (int_range 16 24) in
  let plain = map2 (Printf.sprintf "%d%s") (int_range 1 9) digits in
  let exp = map2 (Printf.sprintf "%de%d") (int_range 1 9) (int_range 16 308) in
  map2 (fun neg lit -> if neg then "-" ^ lit else lit) bool (oneof [ plain; exp ])

let prop_out_of_range_rejected =
  QCheck.Test.make ~count:500 ~name:"integers past 2^53 are always Error"
    QCheck.(make ~print:Print.string out_of_range_literal)
    (fun lit ->
      let queries =
        [
          Printf.sprintf {|{"type":"flow","src":%s,"dst":2}|} lit;
          Printf.sprintf {|{"type":"flow","src":1,"dst":%s}|} lit;
          Printf.sprintf {|{"type":"community","src":0,"sinks":[1,%s]}|} lit;
          Printf.sprintf {|{"type":"flow","src":0,"dst":1,"conditions":[[%s,1,true]]}|} lit;
        ]
      and events =
        [
          Printf.sprintf {|{"type":"attributed","sources":[%s],"nodes":[0],"edges":[]}|} lit;
          Printf.sprintf {|{"type":"add_nodes","count":%s}|} lit;
          Printf.sprintf {|{"type":"remove_edges","edges":[[0,%s]]}|} lit;
        ]
      in
      List.for_all (fun l -> Result.is_error (Query.of_line l)) queries
      && List.for_all (fun l -> Result.is_error (Event.of_line l)) events)

(* ---------- Http.read_request over a socket pair ---------- *)

let valid_requests =
  [|
    "GET /healthz HTTP/1.1\r\nHost: t\r\n\r\n";
    "GET /debug/requests?n=5 HTTP/1.1\r\nHost: t\r\n\r\n";
    "POST /query HTTP/1.1\r\nHost: t\r\nX-Deadline-Ms: 50\r\n\
     Content-Length: 31\r\n\r\n{\"type\":\"flow\",\"src\":0,\"dst\":5}";
    "POST /evidence HTTP/1.1\r\ncontent-length: 0\r\n\r\n";
  |]

(* the guard the server would run with, shrunk so a stalled parse ends
   in milliseconds; no parse may outlast [fuzz_bound_s] *)
let fuzz_window_ms = 10
let fuzz_bound_s = 0.5

(* [bytes] arrive on one end of a socket pair, the other end reads them
   through a guarded reader the way a connection thread does: sniff the
   first line, then hand the rest to [Http.read_request]. With [eof]
   the writer half-closes after the bytes; without it the peer simply
   goes quiet. *)
let over_socketpair ~eof bytes f =
  let a, b = Unix.socketpair Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Fun.protect
    ~finally:(fun () ->
      (try Unix.close a with Unix.Unix_error _ -> ());
      try Unix.close b with Unix.Unix_error _ -> ())
    (fun () ->
      Sockio.write_all b bytes;
      if eof then Unix.shutdown b Unix.SHUTDOWN_SEND;
      let r = Sockio.reader ~max_line_bytes:256 a in
      Sockio.guard r ~window_ms:fuzz_window_ms;
      f r)

let read_framed r =
  match Sockio.read_line r with
  | Sockio.Line first ->
    Some (Http.read_request ~max_body_bytes:512 r ~first_line:first)
  | Sockio.Eof | Sockio.Timeout | Sockio.Too_long -> None

let prop_http_read_request_total =
  QCheck.Test.make ~count:300
    ~name:"Http.read_request: typed and bounded on any bytes"
    QCheck.(
      make
        ~print:Print.(pair bool string)
        Gen.(
          pair bool
            (frequency
               [ (1, string_size (int_bound 96)); (3, mutated valid_requests) ])))
    (fun (eof, bytes) ->
      over_socketpair ~eof bytes (fun r ->
          let t0 = Unix.gettimeofday () in
          (match read_framed r with
          | None
          | Some (Http.Request _ | Http.Malformed _ | Http.Overflow _) ->
            ()
          | exception e ->
            QCheck.Test.fail_reportf "raised %s" (Printexc.to_string e));
          let took = Unix.gettimeofday () -. t0 in
          if took > fuzz_bound_s then
            QCheck.Test.fail_reportf "took %.3f s (bound %.1f s)" took
              fuzz_bound_s;
          true))

(* a valid request, then bytes of the next frame: the body is exactly
   Content-Length bytes and the reader still holds the rest *)
let prop_http_no_read_past_frame =
  let body_char =
    QCheck.Gen.(frequency [ (8, char_range ' ' '~'); (1, return '\n') ])
  in
  let extra_char = QCheck.Gen.char_range 'a' 'z' in
  QCheck.Test.make ~count:200 ~name:"Http.read_request never reads past a frame"
    QCheck.(
      make
        ~print:Print.(triple bool string string)
        Gen.(
          triple bool
            (string_size ~gen:body_char (int_bound 64))
            (string_size ~gen:extra_char (int_range 1 32))))
    (fun (post, body, extra) ->
      let head, want =
        if post then
          ( Printf.sprintf "POST /query HTTP/1.1\r\nContent-Length: %d\r\n\r\n%s"
              (String.length body) body,
            body )
        else ("GET /healthz HTTP/1.1\r\n\r\n", "")
      in
      over_socketpair ~eof:false (head ^ extra ^ "\n") (fun r ->
          (match read_framed r with
          | Some (Http.Request req) when req.Http.body = want -> ()
          | Some (Http.Request req) ->
            QCheck.Test.fail_reportf "body %S, want %S" req.Http.body want
          | Some (Http.Malformed m | Http.Overflow m) ->
            QCheck.Test.fail_reportf "refused a valid request: %s" m
          | None -> QCheck.Test.fail_reportf "no request line");
          match Sockio.read_line r with
          | Sockio.Line l when l = extra -> true
          | Sockio.Line l -> QCheck.Test.fail_reportf "next line %S" l
          | _ -> QCheck.Test.fail_reportf "next frame lost"))

(* ---------- loopback clients ---------- *)

let connect port =
  let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Unix.connect fd (Unix.ADDR_INET (Unix.inet_addr_loopback, port));
  fd

let with_server ?config ?gate ?(engine_config = fast_config) ?(seed = 7)
    ?(icm_seed = 3) f =
  let icm = five_node_icm icm_seed in
  let engine = Engine.create ~config:engine_config ~seed icm in
  let server = Server.create ?config ?gate ~engine () in
  Server.start server;
  Fun.protect
    ~finally:(fun () -> Server.stop server)
    (fun () -> f server engine)

(* one JSONL round trip on an already-open session *)
let ask r fd line =
  Sockio.write_all fd (line ^ "\n");
  match Sockio.read_line r with
  | Sockio.Line l -> l
  | Sockio.Eof -> Alcotest.fail "server closed the session"
  | Sockio.Too_long -> Alcotest.fail "oversized response"
  | Sockio.Timeout -> Alcotest.fail "client-side read timeout"

let query_json ?id ~src ~dst () =
  let id = match id with
    | Some id -> Printf.sprintf "\"id\":\"%s\"," id
    | None -> ""
  in
  Printf.sprintf {|{%s"type":"flow","src":%d,"dst":%d}|} id src dst

let parse_ok line =
  match Jsonl.parse line with
  | Error msg -> Alcotest.failf "bad response %S: %s" line msg
  | Ok json -> (
    match Wire.parsed_result json with
    | Ok (r, version) -> (r, version)
    | Error msg -> Alcotest.failf "error response %S: %s" line msg)

let same_result msg (a : Engine.result) (b : Engine.result) =
  check_bool (msg ^ ": estimate") true
    (Int64.equal (Int64.bits_of_float a.Engine.estimate)
       (Int64.bits_of_float b.Engine.estimate));
  check_bool (msg ^ ": rhat") true
    (Int64.equal (Int64.bits_of_float a.Engine.rhat)
       (Int64.bits_of_float b.Engine.rhat));
  check_bool (msg ^ ": ess") true
    (Int64.equal (Int64.bits_of_float a.Engine.ess)
       (Int64.bits_of_float b.Engine.ess));
  check_bool (msg ^ ": mcse") true
    (Int64.equal (Int64.bits_of_float a.Engine.mcse)
       (Int64.bits_of_float b.Engine.mcse));
  check_int (msg ^ ": samples") a.Engine.total_samples b.Engine.total_samples;
  check_string (msg ^ ": digest") a.Engine.model_digest b.Engine.model_digest

(* ---------- serve ≡ batch ---------- *)

let test_serve_bit_identical () =
  with_server (fun server _engine ->
      (* reference: a fresh engine, same model / seed / config *)
      let reference = Engine.create ~config:fast_config ~seed:7
          (five_node_icm 3) in
      let queries = [ (0, 1); (0, 2); (1, 3); (2, 4); (3, 0); (4, 2) ] in
      let expected =
        List.map (fun (src, dst) ->
            Engine.query reference (Query.flow ~src ~dst ())) queries
      in
      (* several clients, each asking every query over one session *)
      let failures = Bqueue.create 64 in
      let client i =
        let fd = connect (Server.port server) in
        Fun.protect ~finally:(fun () -> Unix.close fd) (fun () ->
            let r = Sockio.reader fd in
            List.iteri
              (fun j (src, dst) ->
                let id = Printf.sprintf "c%d-%d" i j in
                let line = ask r fd (query_json ~id ~src ~dst ()) in
                let got, _version = parse_ok line in
                let want = List.nth expected j in
                if
                  Int64.bits_of_float got.Engine.estimate
                  <> Int64.bits_of_float want.Engine.estimate
                  || got.Engine.total_samples <> want.Engine.total_samples
                then ignore (Bqueue.try_push failures (id, line)))
              queries)
      in
      let threads = List.init 4 (fun i -> Thread.create client i) in
      List.iter Thread.join threads;
      (* every client joined: close, and [pop] answers at once *)
      Bqueue.close failures;
      (match Bqueue.pop failures with
      | Some (id, line) ->
        Alcotest.failf "query %s diverged from direct Engine.query: %s" id line
      | None -> ());
      (* spot-check full bit-identity on one parsed response *)
      let fd = connect (Server.port server) in
      Fun.protect ~finally:(fun () -> Unix.close fd) (fun () ->
          let r = Sockio.reader fd in
          let got, version = parse_ok (ask r fd (query_json ~src:0 ~dst:1 ())) in
          same_result "serve vs direct" (List.hd expected)
            { got with Engine.cached = (List.hd expected).Engine.cached };
          check_int "initial version" 0 (Option.get version)))

(* ---------- serving domains ---------- *)

let two_domains = { fast_config with Engine.domains = Some 2 }

(* The acceptor places each connection on the serving domain with the
   fewest open connections: with the first session still open, the
   second runs on the other domain. The gate runs on the connection
   thread, so it sees the domain that answers. *)
let test_serve_sessions_spread_over_domains () =
  let seen = ref [] and m = Mutex.create () in
  let gate () =
    Mutex.protect m (fun () -> seen := (Domain.self () :> int) :: !seen)
  in
  with_server ~engine_config:two_domains ~gate (fun server _engine ->
      let a = connect (Server.port server) in
      let b = connect (Server.port server) in
      Fun.protect
        ~finally:(fun () ->
          Unix.close a;
          Unix.close b)
        (fun () ->
          ignore (parse_ok (ask (Sockio.reader a) a (query_json ~src:0 ~dst:1 ())));
          ignore (parse_ok (ask (Sockio.reader b) b (query_json ~src:0 ~dst:2 ())));
          match !seen with
          | [ second; first ] ->
            check_bool
              (Printf.sprintf "sessions on different domains (%d, %d)" first
                 second)
              true (first <> second)
          | l -> Alcotest.failf "gate ran %d times, not 2" (List.length l)))

(* The same conditioned, unconditioned, community and joint queries,
   spread over two sessions, give byte-identical answer lines from one
   serving domain and from two: a query's chains run on its
   connection's domain, and nothing about that domain reaches an
   answer. *)
let test_serve_answers_independent_of_domains () =
  let queries =
    [
      {|{"type":"flow","src":0,"dst":1}|};
      {|{"type":"flow","src":0,"dst":4,"conditions":[[0,2,true]]}|};
      {|{"type":"flow","src":1,"dst":3,"conditions":[[2,4,false]]}|};
      {|{"type":"community","src":0,"sinks":[2,3,4]}|};
      {|{"type":"joint","flows":[[0,3],[1,4]]}|};
      {|{"type":"flow","src":3,"dst":0}|};
    ]
  in
  let answers domains =
    with_server
      ~engine_config:{ fast_config with Engine.domains = Some domains }
      (fun server _engine ->
        let fds = Array.init 2 (fun _ -> connect (Server.port server)) in
        Fun.protect
          ~finally:(fun () -> Array.iter Unix.close fds)
          (fun () ->
            let readers = Array.map Sockio.reader fds in
            List.mapi
              (fun i q ->
                (* a fixed request id, so the lines can match byte for byte *)
                let line =
                  Printf.sprintf {|{"request_id":"q%d",%s|} i
                    (String.sub q 1 (String.length q - 1))
                in
                let k = i mod 2 in
                ask readers.(k) fds.(k) line)
              queries))
  in
  let one = answers 1 and two = answers 2 in
  List.iter2
    (fun a b ->
      ignore (parse_ok a);
      check_string "answer line" a b)
    one two

(* Every stop joins the server's domains. The runtime caps live domains
   at 128, so 130 start/stop cycles of a two-domain server fail here if
   any domain outlives its server. Each cycle answers a session on
   each domain first, so the joined domains have run connection
   threads. *)
let test_serve_stop_joins_domains () =
  let engine = Engine.create ~config:two_domains ~seed:7 (five_node_icm 3) in
  for cycle = 1 to 130 do
    let server = Server.create ~engine () in
    Server.start server;
    Fun.protect
      ~finally:(fun () -> Server.stop server)
      (fun () ->
        let a = connect (Server.port server) in
        let b = connect (Server.port server) in
        Fun.protect
          ~finally:(fun () ->
            Unix.close a;
            Unix.close b)
          (fun () ->
            List.iter
              (fun fd ->
                match
                  Jsonl.parse (ask (Sockio.reader fd) fd (query_json ~src:0 ~dst:1 ()))
                with
                | Ok _ -> ()
                | Error msg -> Alcotest.failf "cycle %d: %s" cycle msg)
              [ a; b ]))
  done

(* A paced client on one connection must not wait on TCP's delayed
   ACK. With Nagle's algorithm on, an answer written while the previous
   answer is still unacknowledged is held until the client sends its
   next bytes (or its delayed-ACK timer fires, 40 ms on Linux). Every
   2 ms this client pipelines two requests in one write, so the server
   writes two answers back to back; the answers are cache hits, so the
   round trip is pure transport. *)
let test_serve_paced_client_round_trip () =
  with_server (fun server _engine ->
      let fd = connect (Server.port server) in
      Fun.protect ~finally:(fun () -> Unix.close fd) (fun () ->
          let r = Sockio.reader fd in
          let line = query_json ~src:0 ~dst:1 () in
          ignore (parse_ok (ask r fd line));
          let read () =
            match Sockio.read_line r with
            | Sockio.Line l -> ignore (parse_ok l)
            | _ -> Alcotest.fail "session broke"
          in
          let n = 100 in
          let rtts = Array.make n 0.0 in
          let next = ref (Unix.gettimeofday ()) in
          for i = 0 to n - 1 do
            next := !next +. 0.002;
            let wait = !next -. Unix.gettimeofday () in
            if wait > 0.0 then Unix.sleepf wait;
            let t0 = Unix.gettimeofday () in
            Sockio.write_all fd (line ^ "\n" ^ line ^ "\n");
            read ();
            read ();
            rtts.(i) <- Unix.gettimeofday () -. t0
          done;
          Array.sort compare rtts;
          let median_ms = 1000.0 *. rtts.(n / 2) in
          check_bool
            (Printf.sprintf "median round trip %.3f ms < 1 ms" median_ms)
            true (median_ms < 1.0)))

let test_serve_http_dialect () =
  with_server (fun server engine ->
      let expected = Engine.query engine (Query.flow ~src:0 ~dst:1 ()) in
      let fd = connect (Server.port server) in
      Fun.protect ~finally:(fun () -> Unix.close fd) (fun () ->
          let body =
            query_json ~src:0 ~dst:1 () ^ "\n" ^ "not json at all"
          in
          Sockio.write_all fd
            (Printf.sprintf
               "POST /query HTTP/1.1\r\nHost: t\r\nContent-Length: %d\r\n\r\n%s"
               (String.length body) body);
          let r = Sockio.reader fd in
          (match Sockio.read_line r with
          | Sockio.Line status ->
            check_string "status line" "HTTP/1.1 200 OK" status
          | _ -> Alcotest.fail "no status line");
          (* skip headers *)
          let rec skip () =
            match Sockio.read_line r with
            | Sockio.Line "" -> ()
            | Sockio.Line _ -> skip ()
            | _ -> Alcotest.fail "truncated headers"
          in
          skip ();
          (match Sockio.read_line r with
          | Sockio.Line l ->
            let got, _ = parse_ok l in
            same_result "http vs direct"
              { expected with Engine.cached = got.Engine.cached }
              got
          | _ -> Alcotest.fail "no answer line");
          match Sockio.read_line r with
          | Sockio.Line l ->
            check_bool "typed error for the bad line" true
              (match Jsonl.parse l with
              | Ok json -> (
                match Jsonl.member "error" json with
                | Some (Jsonl.Str "bad_request") -> (
                  (* the message carries the body line number *)
                  match Jsonl.member "message" json with
                  | Some (Jsonl.Str m) ->
                    String.length m >= 7 && String.sub m 0 7 = "line 2:"
                  | _ -> false)
                | _ -> false)
              | Error _ -> false)
          | _ -> Alcotest.fail "no error line"))

let test_serve_healthz_and_metrics () =
  with_server (fun server _engine ->
      let health = Server.health_json server in
      (match Jsonl.parse health with
      | Error msg -> Alcotest.failf "healthz not JSON: %s" msg
      | Ok json ->
        check_string "status ok"
          "ok"
          (match Jsonl.member "status" json with
          | Some (Jsonl.Str s) -> s
          | _ -> "<missing>"));
      let fd = connect (Server.port server) in
      Fun.protect ~finally:(fun () -> Unix.close fd) (fun () ->
          Sockio.write_all fd "GET /metrics HTTP/1.1\r\nHost: t\r\n\r\n";
          let r = Sockio.reader fd in
          (match Sockio.read_line r with
          | Sockio.Line status ->
            check_string "metrics status" "HTTP/1.1 200 OK" status
          | _ -> Alcotest.fail "no status line");
          let content_length = ref 0 in
          let rec skip () =
            match Sockio.read_line r with
            | Sockio.Line "" -> ()
            | Sockio.Line h ->
              (match String.index_opt h ':' with
              | Some i when String.lowercase_ascii (String.sub h 0 i)
                            = "content-length" ->
                content_length :=
                  int_of_string
                    (String.trim
                       (String.sub h (i + 1) (String.length h - i - 1)))
              | _ -> ());
              skip ()
            | _ -> Alcotest.fail "truncated headers"
          in
          skip ();
          let body = Option.get (Sockio.read_exactly r !content_length) in
          (* the exposition must pass the same validator the CI gate uses *)
          match Iflow_obs.Prometheus.check body with
          | Ok () -> ()
          | Error msg -> Alcotest.failf "/metrics failed prom-check: %s" msg))

(* One HTTP exchange (the server closes after each response): the
   status line, the headers with lower-cased names, and the body. *)
let http port request =
  let fd = connect port in
  Fun.protect ~finally:(fun () -> Unix.close fd) (fun () ->
      Sockio.write_all fd request;
      let r = Sockio.reader fd in
      let rec lines acc =
        match Sockio.read_line r with
        | Sockio.Line l -> lines (l :: acc)
        | _ -> List.rev acc
      in
      let rec split headers = function
        | "" :: body -> (List.rev headers, String.concat "\n" body)
        | h :: rest -> (
          match String.index_opt h ':' with
          | Some i ->
            let name = String.lowercase_ascii (String.sub h 0 i) in
            let value = String.sub h (i + 1) (String.length h - i - 1) in
            split ((name, String.trim value) :: headers) rest
          | None -> split headers rest)
        | [] -> Alcotest.fail "no header/body separator"
      in
      match lines [] with
      | status :: rest ->
        let headers, body = split [] rest in
        (status, headers, body)
      | [] -> Alcotest.fail "no status line")

let test_serve_metrics_match_healthz () =
  (* nothing in this process turns any recording on: /healthz and
     /metrics must still read the same counters *)
  with_server (fun server _engine ->
      let port = Server.port server in
      let scrape () =
        let _, _, health = http port "GET /healthz HTTP/1.1\r\nHost: t\r\n\r\n" in
        let _, _, prom = http port "GET /metrics HTTP/1.1\r\nHost: t\r\n\r\n" in
        let healthz name =
          match Result.map (Jsonl.member name) (Jsonl.parse health) with
          | Ok (Some (Jsonl.Num f)) -> int_of_float f
          | _ -> Alcotest.failf "/healthz has no %s" name
        in
        let metric name =
          let prefix = name ^ " " in
          let n = String.length prefix in
          match
            List.find_opt
              (fun l -> String.length l > n && String.sub l 0 n = prefix)
              (String.split_on_char '\n' prom)
          with
          | Some l -> int_of_string (String.sub l n (String.length l - n))
          | None -> Alcotest.failf "/metrics has no %s" name
        in
        ( healthz "requests",
          healthz "answered",
          metric "iflow_serve_requests_total",
          metric "iflow_serve_answers_total" )
      in
      let hr0, ha0, mr0, ma0 = scrape () in
      let n = 5 in
      let fd = connect port in
      Fun.protect ~finally:(fun () -> Unix.close fd) (fun () ->
          let r = Sockio.reader fd in
          for i = 1 to n do
            ignore (parse_ok (ask r fd (query_json ~src:0 ~dst:(1 + (i mod 4)) ())))
          done);
      let hr1, ha1, mr1, ma1 = scrape () in
      check_int "/healthz requests moved by N" n (hr1 - hr0);
      check_int "/healthz answered moved by N" n (ha1 - ha0);
      check_int "/metrics requests moved as /healthz" (hr1 - hr0) (mr1 - mr0);
      check_int "/metrics answers moved as /healthz" (ha1 - ha0) (ma1 - ma0);
      check_int "one requests counter" hr1 mr1;
      check_int "one answers counter" ha1 ma1)

(* ---------- admission control ---------- *)

let test_serve_sheds_over_capacity () =
  let gate_m = Mutex.create () in
  let gate_cv = Condition.create () in
  let gate_open = ref false in
  let stalled = ref 0 in
  let gate () =
    Mutex.protect gate_m (fun () ->
        incr stalled;
        while not !gate_open do
          Condition.wait gate_cv gate_m
        done)
  in
  let config =
    { Server.default_config with Server.queue_capacity = 2; workers = 1 }
  in
  with_server ~config ~gate (fun server _engine ->
      (* the counters are process-wide: check this test's delta *)
      let shed0 = (Server.stats server).Server.shed_capacity in
      let open_sessions = ref [] in
      let submit src dst =
        let fd = connect (Server.port server) in
        open_sessions := fd :: !open_sessions;
        Sockio.write_all fd (query_json ~src ~dst () ^ "\n");
        fd
      in
      Fun.protect
        ~finally:(fun () ->
          Mutex.protect gate_m (fun () ->
              gate_open := true;
              Condition.broadcast gate_cv);
          List.iter (fun fd -> try Unix.close fd with Unix.Unix_error _ -> ())
            !open_sessions)
        (fun () ->
          (* occupy the lone slot… *)
          let busy = submit 0 1 in
          spin "slot held in gate" (fun () ->
              Mutex.protect gate_m (fun () -> !stalled = 1));
          (* …fill the whole queue… *)
          let q1 = submit 0 2 in
          let q2 = submit 0 3 in
          spin "queue full" (fun () -> Server.queue_depth server = 2);
          (* …and the next request must be refused, immediately and typed *)
          let fd = connect (Server.port server) in
          open_sessions := fd :: !open_sessions;
          let r = Sockio.reader fd in
          let line = ask r fd (query_json ~src:0 ~dst:4 ()) in
          (match Jsonl.parse line with
          | Ok json ->
            check_string "typed shed" "over_capacity"
              (match Jsonl.member "error" json with
              | Some (Jsonl.Str s) -> s
              | _ -> "<missing>")
          | Error msg -> Alcotest.failf "unparseable shed response: %s" msg);
          check_int "shed counted" 1
            ((Server.stats server).Server.shed_capacity - shed0);
          (* release the slot: everything admitted still completes *)
          Mutex.protect gate_m (fun () ->
              gate_open := true;
              Condition.broadcast gate_cv);
          List.iter
            (fun fd ->
              let r = Sockio.reader fd in
              match Sockio.read_line r with
              | Sockio.Line l -> ignore (parse_ok l)
              | _ -> Alcotest.fail "admitted request lost on release")
            [ busy; q1; q2 ]))

let test_serve_quota_shed () =
  (* refill so slow it cannot interfere within the test's lifetime *)
  let config =
    {
      Server.default_config with
      Server.quota = Some { Quota.rate = 1e-6; burst = 2.0 };
    }
  in
  with_server ~config (fun server _engine ->
      let shed0 = (Server.stats server).Server.shed_quota in
      let fd = connect (Server.port server) in
      Fun.protect ~finally:(fun () -> Unix.close fd) (fun () ->
          let r = Sockio.reader fd in
          let tenant t src dst =
            ask r fd
              (Printf.sprintf
                 {|{"tenant":"%s","type":"flow","src":%d,"dst":%d}|} t src dst)
          in
          ignore (parse_ok (tenant "a" 0 1));
          ignore (parse_ok (tenant "a" 0 1));
          (match Jsonl.parse (tenant "a" 0 1) with
          | Ok json ->
            check_string "typed quota shed" "quota_exceeded"
              (match Jsonl.member "error" json with
              | Some (Jsonl.Str s) -> s
              | _ -> "<missing>");
            check_bool "retry hint present" true
              (match Jsonl.member "retry_after_ms" json with
              | Some (Jsonl.Num ms) -> ms >= 1.0
              | _ -> false)
          | Error msg -> Alcotest.failf "unparseable: %s" msg);
          (* a different tenant is unaffected *)
          ignore (parse_ok (tenant "b" 0 1));
          check_int "shed counted" 1
            ((Server.stats server).Server.shed_quota - shed0)))

(* ---------- hot-swap under live traffic ---------- *)

(* a Beta-ICM substrate whose evidence the online learner accepts *)
let beta_substrate seed =
  let rng = Rng.create seed in
  let g = Gen.gnm rng ~nodes:12 ~edges:40 in
  let m = Digraph.n_edges g in
  let model = Beta_icm.create g (Array.init m (fun _ -> Beta.v 1.0 1.0)) in
  let icm =
    Icm.create g (Array.init m (fun _ -> 0.2 +. (0.6 *. Rng.uniform rng)))
  in
  let lines n =
    List.init n (fun _ ->
        let src = Rng.int rng (Digraph.n_nodes g) in
        Event.to_line (Event.of_attributed g (Cascade.run rng icm ~sources:[ src ])))
  in
  (g, model, lines)

(* A server whose learner applies POST /evidence on the connection
   thread, over [model]'s substrate; [on_publish] sees each version
   right after its swap. [f] gets the server, its engine and the
   learner, and runs before the server stops. *)
let with_learner ?on_publish ~batch model f =
  let engine =
    Engine.create ~config:fast_config ~seed:7 (Beta_icm.expected_icm model)
  in
  let learner =
    Runner.start ~engine ?on_publish
      { Runner.batch; checkpoint_every = None }
      (Online.create model)
      (Snapshot.create ~id:0 ~offset:0 model)
  in
  let server = Server.create ~learner ~engine () in
  Server.start server;
  Fun.protect
    ~finally:(fun () -> Server.stop server)
    (fun () -> f server engine learner)

(* one POST /evidence exchange: status line, headers, body *)
let post_evidence port lines =
  let body = String.concat "\n" lines in
  http port
    (Printf.sprintf
       "POST /evidence HTTP/1.1\r\nHost: t\r\nContent-Length: %d\r\n\r\n%s"
       (String.length body) body)

let accepted = "HTTP/1.1 202 Accepted"

(* the (version, digest) pair a /healthz body reports *)
let health_pair body =
  match Jsonl.parse body with
  | Ok json -> (
    match (Jsonl.member "version" json, Jsonl.member "digest" json) with
    | Some v, Some (Jsonl.Str d) when Jsonl.to_int v <> None ->
      (Option.get (Jsonl.to_int v), d)
    | _ -> Alcotest.failf "healthz without version/digest: %s" body)
  | Error msg -> Alcotest.failf "healthz: %s" msg

let test_serve_hot_swap_under_load () =
  let _g, model, lines = beta_substrate 17 in
  (* what the learner publishes: version id -> the digest the engine
     holds right after the runner swapped that version in. Written
     under the server's learner lock and read only after the server
     stopped. *)
  let published = Hashtbl.create 8 in
  let last = ref model in
  let engine_ref = ref None in
  let on_publish (v : Snapshot.version) =
    last := v.Snapshot.model;
    Hashtbl.replace published v.Snapshot.id
      (Engine.digest (Option.get !engine_ref))
  in
  let health = ref [] and answers = Array.make 3 [] in
  with_learner ~on_publish ~batch:16 model (fun server engine _learner ->
      engine_ref := Some engine;
      Hashtbl.replace published 0 (Engine.digest engine);
      let stop_clients = ref false in
      let client i =
        let fd = connect (Server.port server) in
        Fun.protect ~finally:(fun () -> Unix.close fd) (fun () ->
            let r = Sockio.reader fd in
            let n = ref 0 in
            while not !stop_clients do
              incr n;
              let src = (i + !n) mod 12 and dst = (i + (2 * !n) + 1) mod 12 in
              if src <> dst then
                answers.(i) <- ask r fd (query_json ~src ~dst ()) :: answers.(i)
            done)
      in
      let clients = List.init 3 (fun i -> Thread.create client i) in
      (* /healthz polled while versions move under the load *)
      let poll () = health := health_pair (Server.health_json server) :: !health in
      (* stream evidence under the running query load: 5 batches *)
      List.iter
        (fun line ->
          poll ();
          let status, _, _ = post_evidence (Server.port server) [ line ] in
          check_string "evidence applied" accepted status)
        (lines 80);
      poll ();
      stop_clients := true;
      List.iter Thread.join clients;
      check_bool "versions advanced" true (Server.current_version server >= 4);
      check_bool "never degraded" false (Server.degraded server);
      (* the live engine now answers bit-identically to a fresh engine
         built on the final published model *)
      let fresh =
        Engine.create ~config:fast_config ~seed:7
          (Beta_icm.expected_icm !last)
      in
      let q = Query.flow ~src:0 ~dst:5 () in
      same_result "post-swap vs fresh engine" (Engine.query fresh q)
        (Engine.query engine q));
  (* with the server stopped, every published pair is known: each
     answer and each /healthz read must name one of them *)
  check_bool "learner published" true (Hashtbl.length published >= 5);
  let torn what version digest =
    if Hashtbl.find_opt published version <> Some digest then
      Alcotest.failf
        "torn %s: version %d with digest %s, but version %d published %s"
        what version digest version
        (Option.value (Hashtbl.find_opt published version)
           ~default:"<never published>")
  in
  let n = ref 0 in
  Array.iter
    (List.iter (fun line ->
         incr n;
         match parse_ok line with
         | got, Some v -> torn ("answer " ^ line) v got.Engine.model_digest
         | _, None -> Alcotest.failf "answer without a version: %s" line))
    answers;
  check_bool "answers collected" true (!n > 0);
  List.iter (fun (v, d) -> torn "/healthz" v d) !health

(* a numeric "id" is echoed only when it names one integer exactly *)
let test_serve_numeric_id_echo () =
  with_server (fun server _engine ->
      let fd = connect (Server.port server) in
      Fun.protect ~finally:(fun () -> Unix.close fd) (fun () ->
          let r = Sockio.reader fd in
          let id_of line =
            match Jsonl.parse line with
            | Ok json -> Jsonl.member "id" json
            | Error msg -> Alcotest.failf "bad response %S: %s" line msg
          in
          let echo id =
            id_of
              (ask r fd
                 (Printf.sprintf {|{"id":%s,"type":"flow","src":0,"dst":1}|} id))
          in
          check_bool "42 echoed" true (echo "42" = Some (Jsonl.Str "42"));
          check_bool "1e300 not echoed" true (echo "1e300" = None);
          check_bool "2^64 not echoed" true
            (echo "18446744073709551616" = None)))

(* a swap the learner never published: /healthz and the next answer
   both name the engine's new pair at once, with no publish hook *)
let test_serve_version_follows_swap () =
  with_server (fun server engine ->
      let icm_b = five_node_icm 4 in
      let digest_b = Icm.digest icm_b in
      check_bool "a different model" true (digest_b <> Engine.digest engine);
      ignore (Engine.swap engine ~version:1 icm_b);
      check_bool "/healthz names the new pair" true
        (health_pair (Server.health_json server) = (1, digest_b));
      let fd = connect (Server.port server) in
      Fun.protect ~finally:(fun () -> Unix.close fd) (fun () ->
          let r = Sockio.reader fd in
          let got, version = parse_ok (ask r fd (query_json ~src:0 ~dst:2 ())) in
          check_string "answer digest" digest_b got.Engine.model_digest;
          check_bool "answer version" true (version = Some 1)))

let test_serve_degraded_swap () =
  let _g, model, lines = beta_substrate 23 in
  Fun.protect ~finally:Fail.reset @@ fun () ->
  with_learner ~batch:8 model (fun server engine _learner ->
      let post lines =
        let status, _, _ = post_evidence (Server.port server) lines in
        check_string "evidence applied" accepted status
      in
      (* the first batch publishes cleanly: the learner's startup swap
         already ran, so arming now hits a publish *)
      post (lines 8);
      check_bool "first publish" true (Server.current_version server >= 1);
      let good_version = Server.current_version server in
      let good_digest = Engine.digest engine in
      (* the next publish fails its swap: the engine must keep serving
         the last-good model and the server must report degraded *)
      Fail.arm ~count:1 "runner.swap";
      post (lines 8);
      check_bool "degraded surfaced" true (Server.degraded server);
      check_string "still the last-good model" good_digest
        (Engine.digest engine);
      let fd = connect (Server.port server) in
      Fun.protect ~finally:(fun () -> Unix.close fd) (fun () ->
          let r = Sockio.reader fd in
          let got, version = parse_ok (ask r fd (query_json ~src:0 ~dst:1 ())) in
          check_string "answers from last-good digest" good_digest
            got.Engine.model_digest;
          check_int "answers from last-good version" good_version
            (Option.get version));
      (match Jsonl.parse (Server.health_json server) with
      | Ok json ->
        check_string "healthz degraded" "degraded"
          (match Jsonl.member "status" json with
          | Some (Jsonl.Str s) -> s
          | _ -> "<missing>")
      | Error msg -> Alcotest.failf "healthz: %s" msg);
      (* the next batch swaps cleanly and recovery is automatic *)
      post (lines 8);
      check_bool "recovered" false (Server.degraded server);
      check_bool "version advanced past the failure" true
        (Server.current_version server > good_version);
      check_bool "digest moved" true (Engine.digest engine <> good_digest))

let test_serve_bad_evidence_keeps_learning () =
  (* an evidence line naming an out-of-range edge endpoint must be
     quarantined, not end the learner: later batches still publish *)
  let _g, model, lines = beta_substrate 29 in
  with_learner ~batch:4 model (fun server _engine _learner ->
      let post lines =
        let status, _, _ = post_evidence (Server.port server) lines in
        status
      in
      let bad =
        {|{"type":"attributed","sources":[0],"nodes":[0,1],"edges":[[99999,1]]}|}
      in
      check_string "bad line queued" accepted (post [ bad ]);
      let before = Server.current_version server in
      check_string "valid batch queued" accepted (post (lines 8));
      check_bool "version advanced past the bad line" true
        (Server.current_version server >= before + 2))

(* read-your-writes: the 202 leaves only after the lines are applied, so
   a body that completes a batch is already served when it returns *)
let test_serve_evidence_read_your_writes () =
  let _g, model, lines = beta_substrate 31 in
  with_learner ~batch:8 model (fun server _engine _learner ->
      let port = Server.port server in
      let status, _, body = post_evidence port (lines 11) in
      check_string "accepted" accepted status;
      check_string "every line counted" {|{"accepted":11}|} body;
      let _, _, health = http port "GET /healthz HTTP/1.1\r\nHost: t\r\n\r\n" in
      check_int "/healthz already names version 1" 1 (fst (health_pair health));
      let fd = connect port in
      Fun.protect ~finally:(fun () -> Unix.close fd) (fun () ->
          let r = Sockio.reader fd in
          let _, version = parse_ok (ask r fd (query_json ~src:0 ~dst:1 ())) in
          check_bool "the next answer carries it" true (version = Some 1));
      (* 3 lines pending + 5 completes the second batch *)
      ignore (post_evidence port (lines 5));
      check_int "second batch served at once" 2 (Server.current_version server))

let test_serve_evidence_without_learner () =
  with_server (fun server _engine ->
      let status, _, body = post_evidence (Server.port server) [ "{}" ] in
      check_string "typed refusal" "HTTP/1.1 404 Not Found" status;
      check_bool "bad_request code" true
        (Result.map (Jsonl.member "error") (Jsonl.parse body)
        = Ok (Some (Jsonl.Str "bad_request")));
      check_int "nothing counted" 0 (Server.current_version server))

(* stopping the server leaves a partial batch pending; finishing the
   learner afterwards publishes and swaps it in *)
let test_serve_finish_publishes_tail () =
  let _g, model, lines = beta_substrate 37 in
  let learner, engine =
    with_learner ~batch:8 model (fun server engine learner ->
        let status, _, _ = post_evidence (Server.port server) (lines 5) in
        check_string "accepted" accepted status;
        check_int "below the batch: nothing published" 0
          (Server.current_version server);
        (learner, engine))
  in
  let report = Runner.finish learner in
  check_int "the tail published" 1 report.Runner.versions_published;
  check_int "covering every line" 5 report.Runner.final.Snapshot.offset;
  check_bool "and swapped in" true
    (Engine.version engine = (1, Icm.digest (Beta_icm.expected_icm report.Runner.final.Snapshot.model)))

(* ---------- request ids and the flight recorder ---------- *)

let member_str name json =
  match Jsonl.member name json with
  | Some (Jsonl.Str s) -> Some s
  | _ -> None

let test_serve_request_id_echo () =
  with_server (fun server _engine ->
      (* JSONL: a client-supplied request_id comes back verbatim *)
      let fd = connect (Server.port server) in
      Fun.protect ~finally:(fun () -> Unix.close fd) (fun () ->
          let r = Sockio.reader fd in
          let line =
            ask r fd {|{"request_id":"mine-1","type":"flow","src":0,"dst":1}|}
          in
          (match Jsonl.parse line with
          | Ok json ->
            check_string "jsonl echo" "mine-1"
              (Option.value ~default:"<missing>"
                 (member_str "request_id" json))
          | Error msg -> Alcotest.failf "unparseable: %s" msg);
          (* an unnamed request gets a server-minted id, also echoed *)
          let line = ask r fd (query_json ~src:0 ~dst:1 ()) in
          (* errors carry the id too *)
          let err_line = ask r fd {|{"request_id":"broken","type":"flow"}|} in
          (match Jsonl.parse line with
          | Ok json ->
            check_bool "minted id nonempty" true
              (match member_str "request_id" json with
              | Some s -> String.length s > 0
              | None -> false)
          | Error msg -> Alcotest.failf "unparseable: %s" msg);
          match Jsonl.parse err_line with
          | Ok json ->
            check_bool "typed error" true (Jsonl.member "error" json <> None);
            check_string "error echoes the id" "broken"
              (Option.value ~default:"<missing>"
                 (member_str "request_id" json))
          | Error msg -> Alcotest.failf "unparseable: %s" msg);
      (* HTTP: X-Request-Id honoured per body line and echoed in the
         response header; batched bodies get a -<lineno> suffix *)
      let fd = connect (Server.port server) in
      Fun.protect ~finally:(fun () -> Unix.close fd) (fun () ->
          let body =
            query_json ~src:0 ~dst:1 () ^ "\n" ^ query_json ~src:0 ~dst:2 ()
          in
          Sockio.write_all fd
            (Printf.sprintf
               "POST /query HTTP/1.1\r\nHost: t\r\nX-Request-Id: req-9\r\n\
                Content-Length: %d\r\n\r\n%s"
               (String.length body) body);
          let r = Sockio.reader fd in
          (match Sockio.read_line r with
          | Sockio.Line status ->
            check_string "status" "HTTP/1.1 200 OK" status
          | _ -> Alcotest.fail "no status line");
          let header_echo = ref "<missing>" in
          let rec skip () =
            match Sockio.read_line r with
            | Sockio.Line "" -> ()
            | Sockio.Line h ->
              (match String.index_opt h ':' with
              | Some i when
                  String.lowercase_ascii (String.sub h 0 i) = "x-request-id"
                ->
                header_echo :=
                  String.trim (String.sub h (i + 1) (String.length h - i - 1))
              | _ -> ());
              skip ()
            | _ -> Alcotest.fail "truncated headers"
          in
          skip ();
          check_string "header echo" "req-9" !header_echo;
          let line_id () =
            match Sockio.read_line r with
            | Sockio.Line l -> (
              match Jsonl.parse l with
              | Ok json ->
                Option.value ~default:"<missing>"
                  (member_str "request_id" json)
              | Error msg -> Alcotest.failf "unparseable: %s" msg)
            | _ -> Alcotest.fail "missing answer line"
          in
          check_string "batched line 1" "req-9-1" (line_id ());
          check_string "batched line 2" "req-9-2" (line_id ())))

let test_serve_request_id_trailing_newline () =
  (* a one-query body ending in a newline is still one line: the
     X-Request-Id names it verbatim in the answer, the flight record
     and the echoed header alike *)
  with_server (fun server _engine ->
      let body = query_json ~src:0 ~dst:1 () ^ "\n" in
      let status, headers, answer =
        http (Server.port server)
          (Printf.sprintf
             "POST /query HTTP/1.1\r\nHost: t\r\nX-Request-Id: abc\r\n\
              Content-Length: %d\r\n\r\n%s"
             (String.length body) body)
      in
      check_string "status" "HTTP/1.1 200 OK" status;
      check_string "header echo" "abc"
        (Option.value ~default:"<missing>" (List.assoc_opt "x-request-id" headers));
      (match Jsonl.parse answer with
      | Ok json ->
        check_string "answer id" "abc"
          (Option.value ~default:"<missing>" (member_str "request_id" json))
      | Error msg -> Alcotest.failf "unparseable: %s" msg);
      check_bool "flight record under the same id" true
        (Flight.find "abc" <> None))

let test_serve_minted_ids_unique () =
  (* 64 concurrent sessions, no client ids: every answer must carry a
     distinct server-minted id *)
  with_server (fun server _engine ->
      let ids = Bqueue.create 128 in
      let client _i =
        let fd = connect (Server.port server) in
        Fun.protect ~finally:(fun () -> Unix.close fd) (fun () ->
            let r = Sockio.reader fd in
            let line = ask r fd (query_json ~src:0 ~dst:1 ()) in
            match Jsonl.parse line with
            | Ok json -> (
              match member_str "request_id" json with
              | Some s -> ignore (Bqueue.try_push ids s)
              | None -> ())
            | Error _ -> ())
      in
      let threads = List.init 64 (fun i -> Thread.create client i) in
      List.iter Thread.join threads;
      let tbl = Hashtbl.create 64 in
      let n = ref 0 in
      Bqueue.close ids;
      let rec drain () =
        match Bqueue.pop ids with
        | Some id ->
          incr n;
          Hashtbl.replace tbl id ();
          drain ()
        | None -> ()
      in
      drain ();
      check_int "64 answers carried ids" 64 !n;
      check_int "all ids distinct" 64 (Hashtbl.length tbl))

let test_serve_flight_record_matches_answer () =
  (* Server.start configures the process-global ring from config
     (default capacity 1024), so records land without further setup *)
  with_server (fun server _engine ->
      let fd = connect (Server.port server) in
      Fun.protect ~finally:(fun () -> Unix.close fd) (fun () ->
          let r = Sockio.reader fd in
          let line =
            ask r fd
              {|{"request_id":"flight-1","type":"flow","src":0,"dst":1}|}
          in
          let got, version = parse_ok line in
          let rc =
            match Flight.find "flight-1" with
            | Some rc -> rc
            | None -> Alcotest.fail "no flight record for flight-1"
          in
          check_string "digest matches answer" got.Engine.model_digest
            rc.Flight.digest;
          check_int "version matches answer" (Option.get version)
            rc.Flight.version;
          let expected_path =
            if got.Engine.cached then Flight.Cache
            else
              match got.Engine.plan with
              | Engine.Plan_exact _ -> Flight.Exact
              | Engine.Plan_mh _ -> Flight.Mh
          in
          check_string "path matches answer"
            (Flight.string_of_path expected_path)
            (Flight.string_of_path rc.Flight.path);
          check_int "samples match answer" got.Engine.total_samples
            rc.Flight.samples;
          check_bool "serialize phase timed" true (rc.Flight.serialize_ns > 0);
          (* a refused request still gets a record, on the error path *)
          let err_line = ask r fd {|{"request_id":"flight-2","type":"flow"}|} in
          (match Jsonl.parse err_line with
          | Ok json ->
            check_bool "typed error" true (Jsonl.member "error" json <> None)
          | Error msg -> Alcotest.failf "unparseable: %s" msg);
          match Flight.find "flight-2" with
          | Some rc ->
            check_string "error path" "error"
              (Flight.string_of_path rc.Flight.path);
            check_string "error code recorded" "bad_request" rc.Flight.error
          | None -> Alcotest.fail "no flight record for the refusal"))

(* GET /debug/requests?n=1000 over HTTP, parsed into its record list *)
let debug_requests server =
  let fd = connect (Server.port server) in
  Fun.protect ~finally:(fun () -> Unix.close fd) (fun () ->
      Sockio.write_all fd
        "GET /debug/requests?n=1000 HTTP/1.1\r\nHost: t\r\n\r\n";
      let r = Sockio.reader fd in
      let rec lines acc =
        match Sockio.read_line r with
        | Sockio.Line l -> lines (l :: acc)
        | _ -> List.rev acc
      in
      let rec body = function
        | "" :: rest -> String.concat "\n" rest
        | _ :: rest -> body rest
        | [] -> Alcotest.fail "no header/body separator"
      in
      match Jsonl.parse (body (lines [])) with
      | Error msg -> Alcotest.failf "/debug/requests not JSON: %s" msg
      | Ok json -> Option.get (Jsonl.to_list json))

let test_serve_flight_capacity_over_the_wire () =
  (* --flight-capacity N keeps the last N requests, not N divided among
     recorder shards *)
  let config = { Server.default_config with Server.flight_capacity = 64 } in
  with_server ~config (fun server _engine ->
      let fd = connect (Server.port server) in
      Fun.protect ~finally:(fun () -> Unix.close fd) (fun () ->
          let r = Sockio.reader fd in
          for i = 1 to 100 do
            ignore
              (parse_ok
                 (ask r fd
                    (Printf.sprintf
                       {|{"request_id":"cap-%d","type":"flow","src":0,"dst":1}|}
                       i)))
          done);
      let ids =
        List.filter_map (member_str "request_id") (debug_requests server)
      in
      check_int "records kept" 64 (List.length ids);
      check_string "newest" "cap-100" (List.hd ids);
      check_string "oldest" "cap-37" (List.nth ids 63))

let test_serve_flight_capacity_zero_disables () =
  (* the ring is process-global: a server started with capacity 0 after
     one with the default capacity must stop recording, not keep
     appending to the earlier server's ring *)
  let one_query server id =
    let fd = connect (Server.port server) in
    Fun.protect ~finally:(fun () -> Unix.close fd) (fun () ->
        ignore
          (parse_ok
             (ask (Sockio.reader fd) fd
                (Printf.sprintf
                   {|{"request_id":"%s","type":"flow","src":0,"dst":1}|} id))))
  in
  with_server (fun server _engine -> one_query server "on-1");
  let config = { Server.default_config with Server.flight_capacity = 0 } in
  with_server ~config (fun server _engine ->
      one_query server "off-1";
      check_bool "recorder off" false (Flight.enabled ());
      check_int "no records served" 0 (List.length (debug_requests server)))

let test_serve_observability_bit_identity () =
  (* the PR 4 invariant extended: answers over the wire with the flight
     recorder AND the trace sink on are bit-identical to a plain
     Engine.query with both off *)
  let reference =
    Engine.create ~config:fast_config ~seed:7 (five_node_icm 3)
  in
  let queries = [ (0, 1); (1, 3); (2, 4) ] in
  let baseline =
    List.map
      (fun (src, dst) -> Engine.query reference (Query.flow ~src ~dst ()))
      queries
  in
  let tmp = Filename.temp_file "iflow_serve_trace" ".json" in
  Trace.to_file tmp;
  Fun.protect
    ~finally:(fun () ->
      Trace.close ();
      Flight.disable ();
      Sys.remove tmp)
    (fun () ->
      with_server (fun server _engine ->
          let fd = connect (Server.port server) in
          Fun.protect ~finally:(fun () -> Unix.close fd) (fun () ->
              let r = Sockio.reader fd in
              List.iteri
                (fun i (src, dst) ->
                  let id = Printf.sprintf "bit-%d" i in
                  let got, _ = parse_ok (ask r fd (query_json ~id ~src ~dst ())) in
                  let want = List.nth baseline i in
                  same_result "observed vs bare"
                    { want with Engine.cached = got.Engine.cached }
                    got)
                queries));
      Trace.close ();
      check_bool "trace recorded the request phases" true
        (let ic = open_in tmp in
         Fun.protect
           ~finally:(fun () -> close_in_noerr ic)
           (fun () ->
             let len = in_channel_length ic in
             let s = really_input_string ic len in
             (* each request's phases are spans on its connection
                thread; there are no flow arrows to draw *)
             let has needle =
               let nl = String.length needle and sl = String.length s in
               let rec go i =
                 i + nl <= sl && (String.sub s i nl = needle || go (i + 1))
               in
               go 0
             in
             has {|"serve.queue_wait"|} && has {|"serve.serialize"|}
             && not (has {|"ph": "s"|}))))

(* ---------- concurrent Engine.query callers ---------- *)

let test_engine_concurrent_queries_and_swaps () =
  let icm_a = five_node_icm 3 in
  let icm_b = five_node_icm 4 in
  let engine = Engine.create ~config:fast_config ~seed:7 icm_a in
  let queries = List.init 6 (fun i -> Query.flow ~src:(i mod 5)
                                        ~dst:((i + 2) mod 5) ()) in
  (* reference answers for both models, same seed and config *)
  let reference icm =
    let e = Engine.create ~config:fast_config ~seed:7 icm in
    List.map (fun q -> (Query.key q, Engine.query e q)) queries
  in
  let ref_a = reference icm_a and ref_b = reference icm_b in
  let digest_a = Icm.digest icm_a and digest_b = Icm.digest icm_b in
  let mismatches = Bqueue.create 1024 in
  let stop = ref false in
  let worker _i =
    while not !stop do
      List.iter
        (fun q ->
          let ph = Engine.phases () in
          let r = Engine.query ~phases:ph engine q in
          let table =
            if String.equal r.Engine.model_digest digest_a then Some ref_a
            else if String.equal r.Engine.model_digest digest_b then Some ref_b
            else None
          in
          (* even versions install a, odd ones b *)
          let tagged_a = ph.Engine.version mod 2 = 0 in
          match table with
          | None -> ignore (Bqueue.try_push mismatches (Query.key q, "digest"))
          | Some table when (table == ref_a) <> tagged_a ->
            ignore (Bqueue.try_push mismatches (Query.key q, "version tag"))
          | Some table ->
            let want = List.assoc (Query.key q) table in
            if
              Int64.bits_of_float r.Engine.estimate
              <> Int64.bits_of_float want.Engine.estimate
              || r.Engine.total_samples <> want.Engine.total_samples
              || Int64.bits_of_float r.Engine.rhat
                 <> Int64.bits_of_float want.Engine.rhat
            then ignore (Bqueue.try_push mismatches (Query.key q, "value")))
        queries
    done
  in
  let threads = List.init 4 (fun i -> Thread.create worker i) in
  (* swap back and forth under the running queries: each swap
     invalidates the cache, so hits and misses race with the swaps *)
  for i = 1 to 20 do
    ignore
      (Engine.swap engine ~version:i (if i mod 2 = 0 then icm_a else icm_b));
    Thread.yield ()
  done;
  stop := true;
  List.iter Thread.join threads;
  Bqueue.close mismatches;
  (match Bqueue.pop mismatches with
  | Some (key, kind) ->
    Alcotest.failf
      "concurrent query %s returned a %s not matching either installed model"
      key kind
  | None -> ());
  (* cache still coherent after the storm: a repeat of every query on
     the final model is a hit with identical bits *)
  let final_ref = if Engine.digest engine = digest_a then ref_a else ref_b in
  List.iter
    (fun q ->
      let r = Engine.query engine q in
      same_result "post-storm cache" (List.assoc (Query.key q) final_ref)
        { r with Engine.cached = (List.assoc (Query.key q) final_ref).Engine.cached })
    queries

(* ---------- deadlines & cancellation ---------- *)

let error_code line =
  match Jsonl.parse line with
  | Error msg -> Alcotest.failf "unparseable response %S: %s" line msg
  | Ok json -> (
    match Jsonl.member "error" json with
    | Some (Jsonl.Str s) -> s
    | _ -> "<no error member>")

(* conditions no state meets are the client's error: a self-negative
   one is refused at decode (bad_request), an unreachable positive one
   once the chain start fails (bad_query); neither is a chains_failed
   500, and the session answers on *)
let test_serve_infeasible_conditions () =
  with_server (fun server engine ->
      (* 0 -> 1 -> 2 -> 3 and 4 -> 0: nothing reaches 4 *)
      let g = Digraph.of_edges ~nodes:5 [ (0, 1); (1, 2); (2, 3); (4, 0) ] in
      ignore (Engine.swap engine ~version:1 (Icm.create g [| 0.5; 0.5; 0.5; 0.5 |]));
      let failed = Iflow_obs.Metrics.counter "iflow_engine_failed_chains_total" in
      let before = Iflow_obs.Metrics.counter_value failed in
      let fd = connect (Server.port server) in
      Fun.protect ~finally:(fun () -> Unix.close fd) (fun () ->
          let r = Sockio.reader fd in
          check_string "self-negative" "bad_request"
            (error_code
               (ask r fd
                  {|{"type":"flow","src":0,"dst":3,"conditions":[[3,3,false]]}|}));
          check_string "unreachable positive" "bad_query"
            (error_code
               (ask r fd
                  {|{"type":"flow","src":0,"dst":3,"conditions":[[0,4,true]]}|}));
          check_int "no chain counted lost" before
            (Iflow_obs.Metrics.counter_value failed);
          ignore (parse_ok (ask r fd (query_json ~src:0 ~dst:3 ())))))

(* mcse_target is unreachable, so only a tripped token can stop the
   sampler — the serve-side twin of the engine's never_converge *)
let never_converge =
  {
    fast_config with
    Engine.planner = false;
    chains = 2;
    burn_in = 20;
    thin = 1;
    round_samples = 20;
    max_samples = 10_000_000;
    rhat_target = 1.0;
    mcse_target = 1e-300;
  }

let test_wire_partial_and_deadline_codes () =
  let r =
    {
      Engine.estimate = 0.5;
      rhat = 1.2;
      ess = 40.0;
      mcse = 0.04;
      total_samples = 80;
      chains_used = 2;
      cached = false;
      partial = true;
      model_digest = "d";
      plan = Engine.Plan_mh { fallback = None; sampler = Engine.Mh };
    }
  in
  (match Jsonl.parse (Wire.result_line r) with
  | Error msg -> Alcotest.failf "unparseable: %s" msg
  | Ok json -> (
    check_bool "partial on the wire" true
      (match Jsonl.member "partial" json with
      | Some (Jsonl.Bool b) -> b
      | _ -> false);
    match Wire.parsed_result json with
    | Ok (r', _) -> check_bool "partial round-trips" true r'.Engine.partial
    | Error msg -> Alcotest.failf "decode: %s" msg));
  (* lines from pre-deadline peers carry no "partial": default false *)
  (match
     Jsonl.parse
       {|{"estimate":0.5,"rhat":1.0,"ess":1.0,"mcse":0.1,"samples":1,"chains":1,"cached":false,"digest":"d"}|}
   with
  | Error msg -> Alcotest.failf "unparseable: %s" msg
  | Ok json -> (
    match Wire.parsed_result json with
    | Ok (r', _) ->
      check_bool "absent partial defaults false" false r'.Engine.partial
    | Error msg -> Alcotest.failf "decode: %s" msg));
  check_string "exceeded code" "deadline_exceeded"
    (Wire.code_string Wire.Deadline_exceeded);
  check_string "unmeetable code" "deadline_unmeetable"
    (Wire.code_string Wire.Deadline_unmeetable)

let test_quota_retry_after_honest () =
  (* the retry hint must be honest in both directions: still denied
     just before it, granted at exactly the hinted instant *)
  let q = Quota.create { Quota.rate = 10.0; burst = 1.0 } in
  let t0 = 5_000_000_000 in
  let drain tenant =
    (match Quota.admit q ~now_ns:t0 ~tenant with
    | Quota.Granted -> ()
    | Quota.Denied _ -> Alcotest.fail "burst denied");
    match Quota.admit q ~now_ns:t0 ~tenant with
    | Quota.Granted -> Alcotest.fail "empty bucket granted"
    | Quota.Denied { retry_after_ns } ->
      check_bool "hint positive" true (retry_after_ns > 0);
      retry_after_ns
  in
  let retry_a = drain "a" in
  (match Quota.admit q ~now_ns:(t0 + retry_a - 1_000_000) ~tenant:"a" with
  | Quota.Denied _ -> ()
  | Quota.Granted -> Alcotest.fail "granted before its own retry hint");
  let retry_b = drain "b" in
  match Quota.admit q ~now_ns:(t0 + retry_b) ~tenant:"b" with
  | Quota.Granted -> ()
  | Quota.Denied _ -> Alcotest.fail "denied at its own retry hint"

let test_sockio_timeout () =
  let a, b = Unix.socketpair Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Fun.protect
    ~finally:(fun () ->
      (try Unix.close a with Unix.Unix_error _ -> ());
      try Unix.close b with Unix.Unix_error _ -> ())
    (fun () ->
      Unix.setsockopt_float a Unix.SO_RCVTIMEO 0.05;
      let r = Sockio.reader a in
      (* a partial line arrives, then silence: the receive window
         expires and must surface as Timeout, not Eof or a line *)
      ignore (Unix.write_substring b "no newline" 0 10);
      match Sockio.read_line r with
      | Sockio.Timeout -> ()
      | Sockio.Line l -> Alcotest.failf "line without terminator: %S" l
      | Sockio.Eof -> Alcotest.fail "reported Eof for a timeout"
      | Sockio.Too_long -> Alcotest.fail "reported Too_long for a timeout")

let test_serve_deadline_expired_in_queue () =
  let gate_m = Mutex.create () in
  let gate_cv = Condition.create () in
  let gate_open = ref false in
  let stalled = ref 0 in
  let gate () =
    Mutex.protect gate_m (fun () ->
        incr stalled;
        while not !gate_open do
          Condition.wait gate_cv gate_m
        done)
  in
  let config =
    { Server.default_config with Server.queue_capacity = 4; workers = 1 }
  in
  with_server ~config ~gate (fun server _engine ->
      let busy_fd = connect (Server.port server) in
      let dl_fd = connect (Server.port server) in
      Fun.protect
        ~finally:(fun () ->
          Mutex.protect gate_m (fun () ->
              gate_open := true;
              Condition.broadcast gate_cv);
          List.iter
            (fun fd -> try Unix.close fd with Unix.Unix_error _ -> ())
            [ busy_fd; dl_fd ])
        (fun () ->
          (* occupy the lone slot with a deadline-free request… *)
          Sockio.write_all busy_fd (query_json ~src:0 ~dst:1 () ^ "\n");
          spin "slot held in gate" (fun () ->
              Mutex.protect gate_m (fun () -> !stalled = 1));
          (* …queue a 25 ms deadline behind it and let it lapse *)
          Sockio.write_all dl_fd
            ({|{"request_id":"dl-q","deadline_ms":25,"type":"flow","src":0,"dst":2}|}
            ^ "\n");
          spin "deadline request queued" (fun () ->
              Server.queue_depth server = 1);
          Unix.sleepf 0.05;
          Mutex.protect gate_m (fun () ->
              gate_open := true;
              Condition.broadcast gate_cv);
          (* the occupied request answers normally *)
          let rb = Sockio.reader busy_fd in
          (match Sockio.read_line rb with
          | Sockio.Line l -> ignore (parse_ok l)
          | _ -> Alcotest.fail "deadline-free request lost");
          (* the expired one is dropped at dequeue, typed *)
          let rd = Sockio.reader dl_fd in
          (match Sockio.read_line rd with
          | Sockio.Line l ->
            check_string "typed refusal" "deadline_exceeded" (error_code l)
          | _ -> Alcotest.fail "deadline request lost");
          (* shed before sampling: the flight record shows zero samples *)
          match Flight.find "dl-q" with
          | Some rc ->
            check_int "zero samples burned" 0 rc.Flight.samples;
            check_int "zero rounds" 0 rc.Flight.rounds;
            check_bool "marked cancelled" true rc.Flight.cancelled;
            check_bool "budget recorded" true (rc.Flight.deadline_ns > 0);
            check_string "typed in the record" "deadline_exceeded"
              rc.Flight.error
          | None -> Alcotest.fail "no flight record for dl-q"))

(* The floor is the server's own, fed by every request that took a
   slot, so admission refuses alike with the flight ring on or off *)
let test_serve_deadline_unmeetable () =
  List.iter
    (fun flight_capacity ->
      (* prime the admission floor: while [slow] is set, every request
         waits 15 ms in the gate after taking its slot, so recent
         requests paid >= 15 ms of queue wait and a 10 ms budget
         cannot fit *)
      let slow = Atomic.make true in
      let gate () = if Atomic.get slow then Unix.sleepf 0.015 in
      let config = { Server.default_config with Server.flight_capacity } in
      with_server ~config ~gate (fun server _engine ->
          let fd = connect (Server.port server) in
          Fun.protect ~finally:(fun () -> Unix.close fd) (fun () ->
              let r = Sockio.reader fd in
              for _ = 1 to 40 do
                ignore (parse_ok (ask r fd (query_json ~src:0 ~dst:1 ())))
              done;
              Atomic.set slow false;
              let shed0 = (Server.stats server).Server.shed_deadline in
              let line =
                ask r fd {|{"deadline_ms":10,"type":"flow","src":0,"dst":1}|}
              in
              check_string
                (Printf.sprintf "typed refusal (flight ring %d)"
                   flight_capacity)
                "deadline_unmeetable" (error_code line);
              check_int "counted in shed_deadline" 1
                ((Server.stats server).Server.shed_deadline - shed0);
              (* an ample budget clears the same floor *)
              ignore
                (parse_ok
                   (ask r fd
                      {|{"deadline_ms":60000,"type":"flow","src":0,"dst":2}|}));
              (* and a request with no deadline is never floor-checked *)
              ignore (parse_ok (ask r fd (query_json ~src:0 ~dst:3 ()))))))
    [ 0; 1024 ]

let test_serve_deadline_validation_and_header () =
  with_server (fun server _engine ->
      let fd = connect (Server.port server) in
      Fun.protect ~finally:(fun () -> Unix.close fd) (fun () ->
          let r = Sockio.reader fd in
          check_string "non-numeric deadline refused" "bad_request"
            (error_code
               (ask r fd
                  {|{"deadline_ms":"soon","type":"flow","src":0,"dst":1}|}));
          check_string "negative deadline refused" "bad_request"
            (error_code
               (ask r fd {|{"deadline_ms":-5,"type":"flow","src":0,"dst":1}|}));
          check_string "fractional deadline refused" "bad_request"
            (error_code
               (ask r fd
                  {|{"deadline_ms":1.5,"type":"flow","src":0,"dst":1}|})));
      (* HTTP: a malformed X-Deadline-Ms header 400s the request *)
      let fd = connect (Server.port server) in
      Fun.protect ~finally:(fun () -> Unix.close fd) (fun () ->
          let body = query_json ~src:0 ~dst:1 () in
          Sockio.write_all fd
            (Printf.sprintf
               "POST /query HTTP/1.1\r\nHost: t\r\nX-Deadline-Ms: never\r\n\
                Content-Length: %d\r\n\r\n%s"
               (String.length body) body);
          let r = Sockio.reader fd in
          match Sockio.read_line r with
          | Sockio.Line status ->
            check_string "400 on a bad header" "400"
              (String.sub status 9 3)
          | _ -> Alcotest.fail "no status line");
      (* HTTP: a valid header deadline rides the body line; with an
         ample budget the answer is full and bit-identical to a bare
         Engine.query — the token was armed but never tripped *)
      let fd = connect (Server.port server) in
      Fun.protect ~finally:(fun () -> Unix.close fd) (fun () ->
          let body = query_json ~src:0 ~dst:1 () in
          Sockio.write_all fd
            (Printf.sprintf
               "POST /query HTTP/1.1\r\nHost: t\r\nX-Deadline-Ms: 60000\r\n\
                Content-Length: %d\r\n\r\n%s"
               (String.length body) body);
          let r = Sockio.reader fd in
          (match Sockio.read_line r with
          | Sockio.Line status -> check_string "status" "HTTP/1.1 200 OK" status
          | _ -> Alcotest.fail "no status line");
          let rec skip () =
            match Sockio.read_line r with
            | Sockio.Line "" -> ()
            | Sockio.Line _ -> skip ()
            | _ -> Alcotest.fail "truncated headers"
          in
          skip ();
          match Sockio.read_line r with
          | Sockio.Line l ->
            let got, _ = parse_ok l in
            check_bool "full answer under an ample deadline" false
              got.Engine.partial;
            let reference =
              Engine.create ~config:fast_config ~seed:7 (five_node_icm 3)
            in
            let want = Engine.query reference (Query.flow ~src:0 ~dst:1 ()) in
            same_result "deadline-armed vs bare" want
              { got with Engine.cached = want.Engine.cached }
          | _ -> Alcotest.fail "no body line"))

(* a budget past Cancel.max_budget_ms would wrap once turned into an
   absolute nanosecond deadline: refused typed, on every path *)
let test_serve_deadline_overflow_refused () =
  with_server (fun server engine ->
      let fd = connect (Server.port server) in
      Fun.protect ~finally:(fun () -> Unix.close fd) (fun () ->
          let r = Sockio.reader fd in
          List.iter
            (fun ms ->
              check_string ms "bad_request"
                (error_code
                   (ask r fd
                      (Printf.sprintf
                         {|{"deadline_ms":%s,"type":"flow","src":0,"dst":1}|} ms))))
            [ "4611686018427"; "4000000000000000"; "9000000000000" ];
          ignore
            (parse_ok
               (ask r fd
                  (Printf.sprintf
                     {|{"deadline_ms":%d,"type":"flow","src":0,"dst":1}|}
                     Iflow_mcmc.Cancel.max_budget_ms))));
      let fd = connect (Server.port server) in
      Fun.protect ~finally:(fun () -> Unix.close fd) (fun () ->
          let body = query_json ~src:0 ~dst:1 () in
          Sockio.write_all fd
            (Printf.sprintf
               "POST /query HTTP/1.1\r\nHost: t\r\nX-Deadline-Ms: 4611686018427\r\n\
                Content-Length: %d\r\n\r\n%s"
               (String.length body) body);
          let r = Sockio.reader fd in
          match Sockio.read_line r with
          | Sockio.Line status ->
            check_string "400 on an overflowing header" "400"
              (String.sub status 9 3)
          | _ -> Alcotest.fail "no status line");
      let over = Some (Iflow_mcmc.Cancel.max_budget_ms + 1) in
      List.iter
        (fun config ->
          match Server.create ~config ~engine () with
          | exception Invalid_argument _ -> ()
          | _ -> Alcotest.fail "config past the clock's range accepted")
        [
          { Server.default_config with Server.default_deadline_ms = over };
          { Server.default_config with Server.max_deadline_ms = over };
          { Server.default_config with Server.slow_query_ms = over };
          { Server.default_config with Server.read_timeout_ms = over };
        ])

let test_serve_partial_answer_over_the_wire () =
  with_server ~engine_config:never_converge (fun server _engine ->
      let fd = connect (Server.port server) in
      Fun.protect ~finally:(fun () -> Unix.close fd) (fun () ->
          let r = Sockio.reader fd in
          let line =
            ask r fd
              {|{"request_id":"dl-partial","deadline_ms":150,"type":"flow","src":0,"dst":1}|}
          in
          let got, _ = parse_ok line in
          check_bool "partial over the wire" true got.Engine.partial;
          check_bool "pooled real rounds" true (got.Engine.total_samples >= 40);
          (* partial answers are never cached: the repeat samples again *)
          let got2, _ =
            parse_ok
              (ask r fd
                 {|{"request_id":"dl-partial-2","deadline_ms":150,"type":"flow","src":0,"dst":1}|})
          in
          check_bool "repeat not served from cache" false got2.Engine.cached;
          match Flight.find "dl-partial" with
          | Some rc ->
            check_bool "marked cancelled" true rc.Flight.cancelled;
            check_bool "budget recorded" true (rc.Flight.deadline_ns > 0)
          | None -> Alcotest.fail "no flight record for dl-partial"))

let test_serve_read_timeout_slow_loris () =
  let config =
    { Server.default_config with Server.read_timeout_ms = Some 120 }
  in
  with_server ~config (fun server _engine ->
      let fd = connect (Server.port server) in
      Fun.protect
        ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
        (fun () ->
          let t0 = Unix.gettimeofday () in
          (* a partial line, then silence: the classic slow-loris *)
          Sockio.write_all fd {|{"type":"flow"|};
          let r = Sockio.reader fd in
          (match Sockio.read_line r with
          | Sockio.Line l ->
            check_string "typed timeout" "bad_request" (error_code l)
          | Sockio.Eof -> Alcotest.fail "closed without a typed error"
          | _ -> Alcotest.fail "unexpected read result");
          check_bool "fired after the window, not instantly" true
            (Unix.gettimeofday () -. t0 >= 0.05);
          check_bool "connection closed afterwards" true
            (Sockio.read_line r = Sockio.Eof)))

let test_serve_reaper_closes_dribbler () =
  let config = { Server.default_config with Server.read_timeout_ms = Some 50 } in
  with_server ~config (fun server _engine ->
      let fd = connect (Server.port server) in
      Fun.protect
        ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
        (fun () ->
          (* one byte every 25 ms defeats SO_RCVTIMEO — each byte
             restarts the receive window — but never completes a line;
             only the reader's 4-window request deadline catches it *)
          let t0 = Unix.gettimeofday () in
          let received = Buffer.create 256 in
          let closed = ref false in
          while (not !closed) && Unix.gettimeofday () -. t0 < 5.0 do
            (try ignore (Unix.write_substring fd "x" 0 1)
             with Unix.Unix_error ((Unix.EPIPE | Unix.ECONNRESET), _, _) ->
               closed := true);
            if not !closed then
              match Unix.select [ fd ] [] [] 0.025 with
              | [ _ ], _, _ -> (
                let buf = Bytes.create 256 in
                try
                  match Unix.read fd buf 0 256 with
                  | 0 -> closed := true
                  | n -> Buffer.add_subbytes received buf 0 n
                with Unix.Unix_error (Unix.ECONNRESET, _, _) -> closed := true)
              | _ -> ()
          done;
          check_bool "guard closed the dribbling connection" true !closed;
          check_bool "but not before the no-progress window (4 windows)" true
            (Unix.gettimeofday () -. t0 >= 0.15);
          match String.split_on_char '\n' (Buffer.contents received) with
          | line :: _ when line <> "" ->
            check_string "typed timeout before the close" "bad_request"
              (error_code line)
          | _ -> Alcotest.fail "closed without a typed timeout"))

let test_serve_header_dribbler_answered () =
  (* the same guard covers a whole HTTP request: one header line every
     half window keeps every read alive, yet the request line through
     the end of the headers may take only 4 windows *)
  let window_s = 0.1 in
  let config =
    { Server.default_config with Server.read_timeout_ms = Some 100 }
  in
  with_server ~config (fun server _engine ->
      let fd = connect (Server.port server) in
      Fun.protect
        ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
        (fun () ->
          let t0 = Unix.gettimeofday () in
          let received = Buffer.create 256 in
          let closed = ref false in
          let send s =
            try ignore (Unix.write_substring fd s 0 (String.length s))
            with Unix.Unix_error ((Unix.EPIPE | Unix.ECONNRESET), _, _) ->
              closed := true
          in
          send "GET /healthz HTTP/1.1\r\n";
          while (not !closed) && Unix.gettimeofday () -. t0 < 5.0 do
            (match Unix.select [ fd ] [] [] (window_s /. 2.0) with
            | [ _ ], _, _ -> (
              let buf = Bytes.create 256 in
              try
                match Unix.read fd buf 0 256 with
                | 0 -> closed := true
                | n -> Buffer.add_subbytes received buf 0 n
              with Unix.Unix_error (Unix.ECONNRESET, _, _) -> closed := true)
            | _ -> send "X-Pad: a\r\n")
          done;
          let elapsed = Unix.gettimeofday () -. t0 in
          check_bool "closed" true !closed;
          check_bool "not before 4 windows" true (elapsed >= 4.0 *. window_s);
          check_bool "within 8 windows" true (elapsed <= 8.0 *. window_s);
          let lines =
            List.filter (fun l -> l <> "")
              (List.map String.trim
                 (String.split_on_char '\n' (Buffer.contents received)))
          in
          match lines with
          | status :: _ :: _ ->
            check_string "typed 400" "HTTP/1.1 400 Bad Request" status;
            check_string "typed body" "bad_request"
              (error_code (List.nth lines (List.length lines - 1)))
          | _ -> Alcotest.fail "closed without a reply"))

let test_serve_long_answer_not_cut () =
  (* the read guard only times reads: a request whose answer takes 6
     read windows keeps its connection, which then serves the next *)
  let release = Atomic.make false in
  let gate () =
    while not (Atomic.get release) do
      Thread.delay 0.005
    done
  in
  let config =
    { Server.default_config with Server.read_timeout_ms = Some 50 }
  in
  with_server ~config ~gate (fun server _engine ->
      let fd = connect (Server.port server) in
      Fun.protect ~finally:(fun () -> Unix.close fd) (fun () ->
          let r = Sockio.reader fd in
          let releaser =
            Thread.create
              (fun () ->
                Thread.delay 0.3;
                Atomic.set release true)
              ()
          in
          ignore (parse_ok (ask r fd (query_json ~src:0 ~dst:1 ())));
          Thread.join releaser;
          ignore (parse_ok (ask r fd (query_json ~src:0 ~dst:2 ())))))

let test_serve_shutdown_refuses_queued () =
  let gate_m = Mutex.create () in
  let gate_cv = Condition.create () in
  let gate_open = ref false in
  let stalled = ref 0 in
  let gate () =
    Mutex.protect gate_m (fun () ->
        incr stalled;
        while not !gate_open do
          Condition.wait gate_cv gate_m
        done)
  in
  let config =
    { Server.default_config with Server.queue_capacity = 4; workers = 1 }
  in
  with_server ~config ~gate (fun server _engine ->
      let busy_fd = connect (Server.port server) in
      let q_fd = connect (Server.port server) in
      Fun.protect
        ~finally:(fun () ->
          Mutex.protect gate_m (fun () ->
              gate_open := true;
              Condition.broadcast gate_cv);
          List.iter
            (fun fd -> try Unix.close fd with Unix.Unix_error _ -> ())
            [ busy_fd; q_fd ])
        (fun () ->
          Sockio.write_all busy_fd (query_json ~src:0 ~dst:1 () ^ "\n");
          spin "slot held in gate" (fun () ->
              Mutex.protect gate_m (fun () -> !stalled = 1));
          (* a deadline-free request waits in the queue when stop lands:
             the drain must stay bounded — no sampling — and the client
             gets a typed shutting_down *)
          Sockio.write_all q_fd (query_json ~src:0 ~dst:2 () ^ "\n");
          spin "second request queued" (fun () ->
              Server.queue_depth server = 1);
          let stopper = Thread.create (fun () -> Server.stop server) () in
          Unix.sleepf 0.05;
          Mutex.protect gate_m (fun () ->
              gate_open := true;
              Condition.broadcast gate_cv);
          (* the in-flight request still finishes normally… *)
          let rb = Sockio.reader busy_fd in
          (match Sockio.read_line rb with
          | Sockio.Line l -> ignore (parse_ok l)
          | _ -> Alcotest.fail "in-flight request lost at shutdown");
          (* …the queued one is refused without sampling *)
          let rq = Sockio.reader q_fd in
          (match Sockio.read_line rq with
          | Sockio.Line l ->
            check_string "typed refusal" "shutting_down" (error_code l)
          | _ -> Alcotest.fail "queued request lost at shutdown");
          Thread.join stopper))

(* ---------- the socket-free request path ---------- *)

(* created, never started: [Server.answer_line] and [Server.route]
   answer without a socket *)
let idle_server =
  lazy
    (Server.create
       ~engine:(Engine.create ~config:fast_config ~seed:7 (five_node_icm 3))
       ())

let wire_codes =
  List.map Wire.code_string
    [
      Wire.Bad_request; Bad_query; Over_capacity; Quota_exceeded;
      Chains_failed; Shutting_down; Deadline_exceeded; Deadline_unmeetable;
    ]

(* any JSON value, as text: the serving members must survive every type *)
let any_json =
  let open QCheck.Gen in
  let scalar =
    oneof
      [
        return "null"; return "true"; return "false";
        map string_of_int (int_range (-5) 5);
        map string_of_int int;
        return (string_of_int Iflow_mcmc.Cancel.max_budget_ms);
        return (string_of_int (Iflow_mcmc.Cancel.max_budget_ms + 1));
        map (Printf.sprintf "%.17g") float;
        return "1e300"; return "1.5";
        map
          (fun s -> Wire.escape s)
          (string_size ~gen:printable (int_bound 8));
      ]
  in
  oneof
    [
      scalar;
      map
        (fun l -> "[" ^ String.concat "," l ^ "]")
        (list_size (int_bound 3) scalar);
      map (fun v -> {|{"k":|} ^ v ^ "}") scalar;
    ]

(* a flow query whose serving members take arbitrary JSON values *)
let query_with_members =
  let open QCheck.Gen in
  (* present one time in three, so most lines still reach the engine *)
  let member name =
    frequency
      [
        (2, return None);
        (1, map (fun v -> Some (Printf.sprintf {|"%s":%s,|} name v)) any_json);
      ]
  in
  map
    (fun (((id, tenant), (rid, dl)), (src, dst)) ->
      let get = Option.value ~default:"" in
      Printf.sprintf {|{%s%s%s%s"type":"flow","src":%d,"dst":%d}|} (get id)
        (get tenant) (get rid) (get dl) src dst)
    (pair
       (pair
          (pair (member "id") (member "tenant"))
          (pair (member "request_id") (member "deadline_ms")))
       (pair (int_range (-1) 5) (int_range (-1) 5)))

(* exactly one reply line per non-blank input, read back as an answer
   or a typed error; never an exception *)
let answers_once line =
  match Server.answer_line (Lazy.force idle_server) ~lineno:1 line with
  | exception e ->
    QCheck.Test.fail_reportf "raised %s on %S" (Printexc.to_string e) line
  | None -> String.trim line = ""
  | Some reply -> (
    if String.trim line = "" then
      QCheck.Test.fail_reportf "blank line %S answered %S" line reply;
    if String.contains reply '\n' then
      QCheck.Test.fail_reportf "reply to %S spans lines: %S" line reply;
    match Jsonl.parse reply with
    | Error msg -> QCheck.Test.fail_reportf "reply %S unparseable: %s" reply msg
    | Ok json -> (
      match (Wire.parsed_result json, Jsonl.member "error" json) with
      | Ok _, None -> true
      | Error _, Some (Jsonl.Str code) when List.mem code wire_codes -> true
      | _ ->
        QCheck.Test.fail_reportf "reply %S is neither answer nor typed error"
          reply))

let prop_answer_line_total =
  QCheck.Test.make ~count:600 ~name:"answer_line: one typed line for any input"
    QCheck.(
      make ~print:Print.string
        Gen.(
          frequency
            [
              (1, string_size (int_bound 64));
              (1, mutated_line);
              (3, query_with_members);
            ]))
    answers_once

(* ---------- the one budget rule, on every surface ---------- *)

let max_ms = Iflow_mcmc.Cancel.max_budget_ms

(* each surface sees the same budgets: (value, accepted) *)
let budgets =
  [
    ("0", false); ("1", true); (string_of_int max_ms, true);
    (string_of_int (max_ms + 1), false); ("-5", false); ("1.5", false);
  ]

let rule_msg name got =
  Printf.sprintf "%s must be an integer from 1 to %d milliseconds%s" name max_ms
    got

let test_budget_rule_member () =
  let server = Lazy.force idle_server in
  List.iter
    (fun (v, ok) ->
      let reply =
        Option.get
          (Server.answer_line server ~lineno:3
             (Printf.sprintf
                {|{"deadline_ms":%s,"type":"flow","src":0,"dst":1}|} v))
      in
      let code = error_code reply in
      if ok then
        check_bool ("deadline_ms " ^ v ^ " accepted") true
          (code <> "bad_request")
      else begin
        check_string ("deadline_ms " ^ v ^ " refused") "bad_request" code;
        let got =
          match int_of_string_opt v with
          | Some n -> Printf.sprintf " (got %d)" n
          | None -> ""
        in
        check_bool ("deadline_ms " ^ v ^ " message") true
          (match Jsonl.parse reply with
          | Ok json ->
            Jsonl.member "message" json
            = Some (Jsonl.Str ("line 3: " ^ rule_msg "deadline_ms" got))
          | Error _ -> false)
      end)
    (budgets @ [ ({|"10"|}, false); ("null", false) ])

let test_budget_rule_header () =
  let server = Lazy.force idle_server in
  List.iter
    (fun (v, ok) ->
      let status, _, body =
        Server.route server
          {
            Http.meth = "POST";
            path = "/query";
            headers = [ ("x-deadline-ms", v) ];
            body = query_json ~src:0 ~dst:1 ();
          }
      in
      check_int ("X-Deadline-Ms " ^ v) (if ok then 200 else 400) status;
      if not ok then
        check_string ("X-Deadline-Ms " ^ v ^ " code") "bad_request"
          (error_code (String.trim body)))
    (budgets @ [ ("never", false); ("", false) ])

let test_budget_rule_config () =
  let engine = Engine.create ~config:fast_config ~seed:7 (five_node_icm 3) in
  List.iter
    (fun (v, ok) ->
      match int_of_string_opt v with
      | None -> () (* the fields are ints: a fraction cannot be written *)
      | Some ms ->
        List.iter
          (fun (name, config) ->
            match Server.create ~config ~engine () with
            | _ ->
              check_bool (Printf.sprintf "%s = %d accepted" name ms) true ok
            | exception Invalid_argument msg ->
              check_bool (Printf.sprintf "%s = %d refused" name ms) false ok;
              check_string (name ^ " message")
                ("Server: bad config: "
                ^ rule_msg name (Printf.sprintf " (got %d)" ms))
                msg)
          (let d = Server.default_config and v = Some ms in
           [
             ("slow_query_ms", { d with Server.slow_query_ms = v });
             ("default_deadline_ms", { d with Server.default_deadline_ms = v });
             ("max_deadline_ms", { d with Server.max_deadline_ms = v });
             ("read_timeout_ms", { d with Server.read_timeout_ms = v });
           ]))
    budgets

(* the CLI applies the rule before any work: out of range exits 1,
   a fraction is cmdliner's parse error (124) *)
let test_budget_rule_cli () =
  let model = Filename.temp_file "iflow_budget" ".bicm" in
  Fun.protect
    ~finally:(fun () -> Sys.remove model)
    (fun () ->
      Iflow_io.Model_io.save_beta_icm model
        (Iflow_core.Generator.default_beta_icm (Rng.create 1) ~nodes:5
           ~edges:12);
      List.iter
        (fun (v, ok) ->
          let code =
            Sys.command
              (Filename.quote_command ~stdout:Filename.null
                 ~stderr:Filename.null "../bin/infoflow.exe"
                 [
                   "estimate"; "--model"; model; "--src"; "0"; "--dst"; "1";
                   "--chains"; "2"; "--deadline-ms=" ^ v;
                 ])
          in
          let want =
            match (ok, int_of_string_opt v) with
            | true, _ -> [ 0; 2 ] (* 2: a 1 ms budget may end before a round *)
            | false, Some _ -> [ 1 ]
            | false, None -> [ 124 ]
          in
          check_bool
            (Printf.sprintf "--deadline-ms %s exits %d" v code)
            true (List.mem code want))
        budgets)

let () =
  Alcotest.run "serve"
    [
      ( "bqueue",
        [
          Alcotest.test_case "fifo" `Quick test_bqueue_order;
          Alcotest.test_case "bounded" `Quick test_bqueue_bounded;
          Alcotest.test_case "close semantics" `Quick test_bqueue_close;
          Alcotest.test_case "blocking pop" `Quick test_bqueue_blocking_pop;
          Alcotest.test_case "validation" `Quick test_bqueue_validation;
        ] );
      ( "slots",
        [
          Alcotest.test_case "fifo" `Quick test_slots_fifo;
          Alcotest.test_case "full at capacity" `Quick test_slots_full;
          Alcotest.test_case "close releases waiters, holders finish" `Quick
            test_slots_close;
          Alcotest.test_case "validation" `Quick test_slots_validation;
        ] );
      ( "quota",
        [
          Alcotest.test_case "burst then deny" `Quick test_quota_burst_then_deny;
          Alcotest.test_case "tenants independent" `Quick
            test_quota_tenants_independent;
          Alcotest.test_case "refill caps at burst" `Quick
            test_quota_refill_caps_at_burst;
          Alcotest.test_case "validation" `Quick test_quota_validation;
        ] );
      ( "sockio-http",
        [
          Alcotest.test_case "line framing" `Quick test_sockio_lines;
          Alcotest.test_case "line cap" `Quick test_sockio_too_long;
          Alcotest.test_case "1 MiB line, linear allocation" `Quick
            test_sockio_long_line_linear;
          Alcotest.test_case "lines across read windows" `Quick
            test_sockio_lines_across_windows;
          Alcotest.test_case "request parse" `Quick test_http_parse;
          Alcotest.test_case "rejects" `Quick test_http_rejects;
        ] );
      ( "wire",
        [
          Alcotest.test_case "result round-trip" `Quick
            test_wire_result_roundtrip;
          Alcotest.test_case "non-finite diagnostics" `Quick
            test_wire_nonfinite;
          Alcotest.test_case "error line" `Quick test_wire_error_line;
          Alcotest.test_case "decode errors carry line numbers" `Quick
            test_decode_errors_carry_line_numbers;
          Alcotest.test_case "out-of-range integers rejected" `Quick
            test_out_of_range_ints_rejected;
          Alcotest.test_case "fuzz seeds decode" `Quick test_fuzz_seeds_decode;
        ]
        @ List.map
            (QCheck_alcotest.to_alcotest ~rand:(Random.State.make [| 0 |]))
            [
              prop_decoders_never_raise;
              prop_out_of_range_rejected;
              prop_http_read_request_total;
              prop_http_no_read_past_frame;
            ] );
      ( "server",
        [
          Alcotest.test_case "serve = batch, bit for bit" `Slow
            test_serve_bit_identical;
          Alcotest.test_case "http dialect" `Slow test_serve_http_dialect;
          Alcotest.test_case "healthz and metrics" `Quick
            test_serve_healthz_and_metrics;
          Alcotest.test_case "sheds over capacity" `Slow
            test_serve_sheds_over_capacity;
          Alcotest.test_case "quota shed" `Slow test_serve_quota_shed;
          Alcotest.test_case "hot-swap under load" `Slow
            test_serve_hot_swap_under_load;
          Alcotest.test_case "degraded swap" `Slow test_serve_degraded_swap;
          Alcotest.test_case "version follows swap" `Quick
            test_serve_version_follows_swap;
          Alcotest.test_case "numeric id echo in range" `Quick
            test_serve_numeric_id_echo;
          Alcotest.test_case "infeasible conditions are client errors" `Quick
            test_serve_infeasible_conditions;
          Alcotest.test_case "bad evidence keeps learning" `Slow
            test_serve_bad_evidence_keeps_learning;
          Alcotest.test_case "evidence: read your writes" `Quick
            test_serve_evidence_read_your_writes;
          Alcotest.test_case "evidence without a learner" `Quick
            test_serve_evidence_without_learner;
          Alcotest.test_case "finish publishes the tail" `Quick
            test_serve_finish_publishes_tail;
          Alcotest.test_case "/metrics counts what /healthz counts" `Quick
            test_serve_metrics_match_healthz;
          Alcotest.test_case "paced client round trip" `Slow
            test_serve_paced_client_round_trip;
        ] );
      ( "domains",
        [
          Alcotest.test_case "sessions spread over domains" `Quick
            test_serve_sessions_spread_over_domains;
          Alcotest.test_case "answers independent of domains" `Quick
            test_serve_answers_independent_of_domains;
          Alcotest.test_case "stop joins every domain, 130 cycles" `Slow
            test_serve_stop_joins_domains;
        ] );
      ( "request-ids",
        [
          Alcotest.test_case "request_id echo, both dialects" `Slow
            test_serve_request_id_echo;
          Alcotest.test_case "minted ids unique across 64 sessions" `Slow
            test_serve_minted_ids_unique;
          Alcotest.test_case "flight record matches the wire answer" `Slow
            test_serve_flight_record_matches_answer;
          Alcotest.test_case "bit-identical with flight + trace on" `Slow
            test_serve_observability_bit_identity;
          Alcotest.test_case "flight capacity holds over the wire" `Slow
            test_serve_flight_capacity_over_the_wire;
          Alcotest.test_case "flight capacity 0 turns the ring off" `Slow
            test_serve_flight_capacity_zero_disables;
          Alcotest.test_case "X-Request-Id on a newline-terminated body" `Slow
            test_serve_request_id_trailing_newline;
        ] );
      ( "deadlines",
        [
          Alcotest.test_case "partial flag and deadline codes" `Quick
            test_wire_partial_and_deadline_codes;
          Alcotest.test_case "quota retry hint honest" `Quick
            test_quota_retry_after_honest;
          Alcotest.test_case "sockio surfaces SO_RCVTIMEO" `Quick
            test_sockio_timeout;
          Alcotest.test_case "expired in queue, shed before sampling" `Slow
            test_serve_deadline_expired_in_queue;
          Alcotest.test_case "unmeetable budget refused at admission" `Slow
            test_serve_deadline_unmeetable;
          Alcotest.test_case "validation + X-Deadline-Ms header" `Slow
            test_serve_deadline_validation_and_header;
          Alcotest.test_case "deadlines past the clock's range refused" `Quick
            test_serve_deadline_overflow_refused;
          Alcotest.test_case "partial answer over the wire" `Slow
            test_serve_partial_answer_over_the_wire;
          Alcotest.test_case "slow-loris read timeout" `Slow
            test_serve_read_timeout_slow_loris;
          Alcotest.test_case "reaper closes the byte-dribbler" `Slow
            test_serve_reaper_closes_dribbler;
          Alcotest.test_case "header dribbler answered 400" `Slow
            test_serve_header_dribbler_answered;
          Alcotest.test_case "long answer never cut" `Slow
            test_serve_long_answer_not_cut;
          Alcotest.test_case "shutdown refuses queued work" `Slow
            test_serve_shutdown_refuses_queued;
          Alcotest.test_case "budget rule: deadline_ms member" `Quick
            test_budget_rule_member;
          Alcotest.test_case "budget rule: X-Deadline-Ms header" `Quick
            test_budget_rule_header;
          Alcotest.test_case "budget rule: config fields" `Quick
            test_budget_rule_config;
          Alcotest.test_case "budget rule: --deadline-ms" `Quick
            test_budget_rule_cli;
        ] );
      ( "request-path",
        List.map
          (QCheck_alcotest.to_alcotest ~rand:(Random.State.make [| 0 |]))
          [ prop_answer_line_total ] );
      ( "engine-concurrency",
        [
          Alcotest.test_case "queries race swaps" `Slow
            test_engine_concurrent_queries_and_swaps;
        ] );
    ]
