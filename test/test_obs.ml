(* Tests for the observability layer (lib/obs) and its hard ISSUE 4
   guarantees:

   - histogram bucketing/quantiles agree with a brute-force sorted
     array under the documented power-of-two bucket rule;
   - domain-local counter shards merge to exact totals under real
     [Domain.spawn] parallelism;
   - installing a trace sink does not perturb the sampler or the
     engine: estimates are bit-for-bit identical with and without it;
   - the Prometheus exposition passes its own format checker (and the
     checker rejects the malformed documents it exists to catch);
   - trace phases round-trip through the JSONL sink as well-formed
     Chrome trace_event records. *)

module Rng = Iflow_stats.Rng
module Gen = Iflow_graph.Gen
module Digraph = Iflow_graph.Digraph
module Icm = Iflow_core.Icm
module Estimator = Iflow_mcmc.Estimator
module Engine = Iflow_engine.Engine
module Query = Iflow_engine.Query
module Jsonl = Iflow_engine.Jsonl
module Metrics = Iflow_obs.Metrics
module Prometheus = Iflow_obs.Prometheus
module Trace = Iflow_obs.Trace
module Log = Iflow_obs.Log
module Flight = Iflow_obs.Flight

let qcheck tests =
  List.map (QCheck_alcotest.to_alcotest ~rand:(Random.State.make [| 0 |])) tests

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)
let check_string = Alcotest.(check string)
let check_float msg a b = Alcotest.(check (float 0.0)) msg a b

let contains haystack needle =
  let nh = String.length haystack and nn = String.length needle in
  let rec go i =
    if i + nn > nh then false
    else String.sub haystack i nn = needle || go (i + 1)
  in
  nn = 0 || go 0

(* [f ()] with a trace sink installed in a scratch file ([on]) or with
   none; the sink is process-global, so it is always closed again. *)
let with_trace on f =
  if not on then f ()
  else begin
    let path = Filename.temp_file "iflow_obs_trace" ".json" in
    Trace.to_file path;
    Fun.protect
      ~finally:(fun () ->
        Trace.close ();
        Sys.remove path)
      f
  end

(* ---------- histogram vs brute force ---------- *)

(* the documented bucket rule: v <= 1 lands in bucket 0, otherwise the
   highest set bit indexes the bucket, capped at the open-ended last
   one; a bucket's upper edge is the next power of two *)
let expected_quantile values q =
  let sorted = Array.copy values in
  Array.sort compare sorted;
  let n = Array.length sorted in
  let k = max 1 (int_of_float (ceil (q *. float_of_int n))) in
  let v = sorted.(k - 1) in
  let i =
    if v <= 1 then 0
    else begin
      let v = ref v and i = ref 0 in
      while !v > 1 do
        v := !v lsr 1;
        incr i
      done;
      min !i 47
    end
  in
  if i >= 47 then infinity else float_of_int (1 lsl (i + 1))

let histogram_quantile_matches_brute_force =
  QCheck.Test.make ~count:200 ~name:"histogram quantile = brute force"
    QCheck.(
      pair
        (list_of_size Gen.(1 -- 200) (int_bound 1_000_000))
        (int_range 1 100))
    (fun (values, qpct) ->
      let values = Array.of_list values in
      let q = float_of_int qpct /. 100.0 in
      let reg = Metrics.create_registry () in
      let h = Metrics.histogram ~registry:reg "test_hist_ns" in
      Array.iter (Metrics.observe h) values;
      Metrics.quantile h q = expected_quantile values q
      && Metrics.histogram_count h = Array.length values
      && Metrics.histogram_sum h = Array.fold_left ( + ) 0 values)

let test_histogram_edges () =
  let reg = Metrics.create_registry () in
  let h = Metrics.histogram ~registry:reg "edge_hist" in
  check_bool "empty quantile is nan" true (Float.is_nan (Metrics.quantile h 0.5));
  Metrics.observe h 0;
  Metrics.observe h 1;
  Metrics.observe h (-5) (* clamped to 0 *);
  check_int "count" 3 (Metrics.histogram_count h);
  check_int "sum" 1 (Metrics.histogram_sum h);
  (* all three land in bucket 0, upper edge 2 *)
  check_float "q=1 upper edge" 2.0 (Metrics.quantile h 1.0);
  Alcotest.check_raises "q=0 rejected"
    (Invalid_argument "Obs.Metrics.quantile: q outside (0, 1]") (fun () ->
      ignore (Metrics.quantile h 0.0))

(* ---------- sharded counters under Domain.spawn ---------- *)

let test_sharded_merge () =
  let reg = Metrics.create_registry () in
  let c = Metrics.counter ~registry:reg "spawned_total" in
  let h = Metrics.histogram ~registry:reg "spawned_hist" in
  let domains = 4 and per_domain = 25_000 in
  let workers =
    List.init domains (fun d ->
        Domain.spawn (fun () ->
            for i = 1 to per_domain do
              Metrics.inc c;
              Metrics.observe h ((d * per_domain) + i)
            done))
  in
  List.iter Domain.join workers;
  check_int "counter merges exactly" (domains * per_domain)
    (Metrics.counter_value c);
  check_int "histogram count merges exactly" (domains * per_domain)
    (Metrics.histogram_count h);
  check_int "histogram sum merges exactly"
    (domains * per_domain * ((domains * per_domain) + 1) / 2)
    (Metrics.histogram_sum h)

let test_counter_semantics () =
  let reg = Metrics.create_registry () in
  let c = Metrics.counter ~registry:reg "sem_total" in
  Metrics.inc c;
  Metrics.add c 41;
  Metrics.add c (-7) (* counters are monotone: negative adds ignored *);
  check_int "inc/add/negative-add" 42 (Metrics.counter_value c);
  let c' = Metrics.counter ~registry:reg "sem_total" in
  Metrics.inc c';
  check_int "re-registration is the same counter" 43 (Metrics.counter_value c);
  check_bool "kind clash rejected" true
    (match Metrics.gauge ~registry:reg "sem_total" with
    | _ -> false
    | exception Invalid_argument _ -> true)

(* ---------- a trace sink never perturbs estimates ---------- *)

let test_bit_for_bit_estimator () =
  let rng = Rng.create 7 in
  let g = Gen.gnm rng ~nodes:12 ~edges:40 in
  let icm =
    Icm.create g (Array.init 40 (fun _ -> 0.1 +. (0.8 *. Rng.uniform rng)))
  in
  let config = { Estimator.burn_in = 300; thin = 3; samples = 400 } in
  let run () =
    Estimator.flow_probability (Rng.create 99) icm config ~src:0 ~dst:7
  in
  let off = with_trace false run in
  let on = with_trace true run in
  check_float "estimator estimate identical with a trace sink" off on

let test_bit_for_bit_engine () =
  let rng = Rng.create 11 in
  let g = Gen.gnm rng ~nodes:15 ~edges:60 in
  let icm =
    Icm.create g (Array.init 60 (fun _ -> 0.1 +. (0.8 *. Rng.uniform rng)))
  in
  let config =
    {
      Engine.default_config with
      Engine.chains = 2;
      burn_in = 100;
      round_samples = 100;
      max_samples = 400;
    }
  in
  let run () =
    let e = Engine.create ~config ~seed:5 icm in
    let r = Engine.query e (Query.flow ~src:0 ~dst:9 ()) in
    r.Engine.estimate
  in
  let off = with_trace false run in
  let on = with_trace true run in
  check_float "engine estimate identical with a trace sink" off on

let test_bit_for_bit_flight_and_rid () =
  (* the full per-request observability stack — flight recorder on,
     trace sink installed, rid + phases threaded — must not move a
     single bit of the estimate *)
  let rng = Rng.create 13 in
  let g = Gen.gnm rng ~nodes:15 ~edges:60 in
  let icm =
    Icm.create g (Array.init 60 (fun _ -> 0.1 +. (0.8 *. Rng.uniform rng)))
  in
  let config =
    {
      Engine.default_config with
      Engine.chains = 2;
      burn_in = 100;
      round_samples = 100;
      max_samples = 400;
    }
  in
  let bare () =
    let e = Engine.create ~config ~seed:5 icm in
    (Engine.query e (Query.flow ~src:0 ~dst:9 ())).Engine.estimate
  in
  let observed () =
    let path = Filename.temp_file "iflow_obs_flight" ".json" in
    Flight.configure ~capacity:16 ();
    Trace.to_file path;
    Fun.protect
      ~finally:(fun () ->
        Trace.close ();
        Flight.disable ();
        Sys.remove path)
      (fun () ->
        let e = Engine.create ~config ~seed:5 icm in
        let ph = Engine.phases () in
        let r = Engine.query ~rid:"obs-1" ~phases:ph e (Query.flow ~src:0 ~dst:9 ()) in
        check_bool "sample phase measured" true (ph.Engine.sample_ns > 0);
        check_bool "rounds counted" true (ph.Engine.rounds > 0);
        r.Engine.estimate)
  in
  let off = bare () in
  let on = observed () in
  check_float "estimate identical with flight + trace + rid on" off on

(* ---------- Prometheus exposition ---------- *)

let test_prometheus_well_formed () =
  let reg = Metrics.create_registry () in
  let c = Metrics.counter ~registry:reg ~help:"a counter" "iflow_test_total" in
  let cl =
    Metrics.counter ~registry:reg
      ~labels:[ ("reason", "parse \"quoted\"\nnewline") ]
      ~help:"a counter" "iflow_test_labeled_total"
  in
  let gauge = Metrics.gauge ~registry:reg ~help:"a gauge" "iflow_test_gauge" in
  let h =
    Metrics.histogram ~registry:reg ~scale:1e-9 ~help:"a histogram"
      "iflow_test_seconds"
  in
  Metrics.add c 3;
  Metrics.inc cl;
  Metrics.set gauge nan;
  Metrics.observe h 1_500_000;
  let text = Prometheus.to_string reg in
  (match Prometheus.check text with
  | Ok () -> ()
  | Error msg -> Alcotest.failf "exposition rejected: %s" msg);
  List.iter
    (fun needle -> check_bool needle true (contains text needle))
    [
      "# TYPE iflow_test_total counter";
      "iflow_test_total 3";
      "# TYPE iflow_test_seconds histogram";
      "iflow_test_seconds_bucket{le=\"+Inf\"} 1";
      "iflow_test_seconds_count 1";
      "iflow_test_gauge NaN";
      (* label values escape backslash-style *)
      "reason=\"parse \\\"quoted\\\"\\nnewline\"";
    ]

let test_prometheus_default_registry_checks () =
  (* the real exposition — everything the instrumented libraries
     registered at init — is valid and spans the three namespaces. The
     stream layer must be referenced or the linker drops its modules
     (and with them their registrations) from this binary *)
  ignore Iflow_stream.Runner.default_config;
  let text = Prometheus.to_string Metrics.default in
  (match Prometheus.check text with
  | Ok () -> ()
  | Error msg -> Alcotest.failf "default exposition rejected: %s" msg);
  List.iter
    (fun prefix ->
      check_bool ("has a " ^ prefix ^ " metric") true
        (contains text ("# TYPE " ^ prefix)))
    [ "iflow_mcmc_"; "iflow_engine_"; "iflow_stream_" ]

let test_prometheus_check_rejects () =
  let rejects label doc =
    match Prometheus.check doc with
    | Ok () -> Alcotest.failf "%s: malformed document accepted" label
    | Error _ -> ()
  in
  rejects "bad name" "0bad_name 1\n";
  rejects "duplicate sample" "a_total 1\na_total 2\n";
  rejects "duplicate sample, labels reordered"
    "a_total{x=\"1\",y=\"2\"} 1\na_total{y=\"2\",x=\"1\"} 2\n";
  rejects "duplicate TYPE" "# TYPE a counter\n# TYPE a counter\n";
  rejects "bad escape" "a_total{x=\"\\q\"} 1\n";
  rejects "unterminated label" "a_total{x=\"1\" 1\n";
  rejects "non-numeric value" "a_total one\n";
  rejects "trailing garbage" "a_total 1 2 3\n";
  Alcotest.(check (result unit string))
    "distinct label sets are fine" (Ok ())
    (Prometheus.check "a_total{x=\"1\"} 1\na_total{x=\"2\"} 2\n")

(* ---------- trace JSONL round-trip ---------- *)

let with_temp_file f =
  let path = Filename.temp_file "iflow_obs_test" ".jsonl" in
  Fun.protect ~finally:(fun () -> if Sys.file_exists path then Sys.remove path)
    (fun () -> f path)

let read_file path =
  let ic = open_in_bin path in
  Fun.protect ~finally:(fun () -> close_in ic) (fun () ->
      really_input_string ic (in_channel_length ic))

let field name v =
  match Jsonl.member name v with
  | Some x -> x
  | None -> Alcotest.failf "trace event missing %S" name

let test_trace_round_trip () =
  with_temp_file @@ fun path ->
  Trace.to_file path;
  check_bool "enabled once a sink is installed" true (Trace.enabled ());
  let reg = Metrics.create_registry () in
  let h = Metrics.histogram ~registry:reg "trace_phase_ns" in
  let t0 = Iflow_obs.Clock.now_ns () in
  Trace.instant "mark" ~args:[ ("x", Trace.Float 0.5) ] ();
  let outer = Trace.phase ~hist:h "outer" ~args:[ ("k", Trace.Int 3) ] ~t0 in
  let bare = Trace.phase "bare" ~t0:(Iflow_obs.Clock.now_ns ()) in
  Trace.close ();
  Trace.close () (* idempotent *);
  check_bool "phase returns its duration" true (outer >= 0 && bare >= 0);
  check_int "phase observes its histogram once" 1 (Metrics.histogram_count h);
  check_int "with the returned duration" outer (Metrics.histogram_sum h);
  check_bool "disabled after close" false (Trace.enabled ());
  let doc = read_file path in
  let events =
    match Jsonl.parse doc with
    | Ok v -> (
      match Jsonl.to_list v with
      | Some l -> l
      | None -> Alcotest.fail "trace file is not a JSON array")
    | Error msg -> Alcotest.failf "trace file does not parse: %s" msg
  in
  check_int "three events" 3 (List.length events);
  let ph e = Option.get (Jsonl.to_string (field "ph" e)) in
  let name e = Option.get (Jsonl.to_string (field "name" e)) in
  (* the sink serialises in emission order: the instant fires inside
     the outer phase, so it lands first; a phase is emitted as it closes *)
  check_string "phases" "i,X,X" (String.concat "," (List.map ph events));
  check_string "names" "mark,outer,bare"
    (String.concat "," (List.map name events));
  let is_num = function Jsonl.Num _ -> true | _ -> false in
  List.iter
    (fun e ->
      check_bool "ts is a number" true (is_num (field "ts" e));
      ignore (field "pid" e);
      ignore (field "tid" e))
    events;
  let x = List.nth events 1 in
  check_bool "span has a dur" true (is_num (field "dur" x));
  check_int "span args survive" 3
    (Option.get (Jsonl.to_int (field "k" (field "args" x))))

let test_trace_reinstall_closes_previous () =
  (* replacing the sink must terminate the previous file's JSON array,
     so a long-lived process rotating trace files never leaves the old
     one truncated *)
  with_temp_file @@ fun a ->
  with_temp_file @@ fun b ->
  Trace.to_file a;
  Trace.instant "in-a" ();
  Trace.to_file b (* closes a *);
  Trace.instant "in-b" ();
  Trace.close ();
  List.iter
    (fun (path, name) ->
      let doc = read_file path in
      check_bool (name ^ " array terminated") true (contains doc "\n]\n");
      match Jsonl.parse doc with
      | Ok v ->
        let events = Option.get (Jsonl.to_list v) in
        check_int (name ^ " has one event") 1 (List.length events);
        check_string (name ^ " right event") name
          (Option.get (Jsonl.to_string (field "name" (List.hd events))))
      | Error msg -> Alcotest.failf "%s does not parse: %s" path msg)
    [ (a, "in-a"); (b, "in-b") ]

(* ---------- flight recorder ---------- *)

(* one record through [Flight.submit], the recorder's only writer, with
   the defaults an unmeasured phase or unsampled answer carries *)
let note ~id ~tenant ~kind ~path ?(fallback = "") ?(error = "")
    ?(version = -1) ?(digest = "") ?(queue_wait_ns = 0) ?(plan_ns = 0)
    ?(sample_ns = 0) ?(serialize_ns = 0) ?(rounds = 0) ?(samples = 0)
    ?(rhat = Float.nan) ?(mcse = Float.nan) () =
  ignore
  @@ Flight.submit
    {
      Flight.seq = -1;
      id;
      tenant;
      kind;
      path;
      fallback;
      error;
      version;
      digest;
      queue_wait_ns;
      plan_ns;
      sample_ns;
      serialize_ns;
      rounds;
      samples;
      rhat;
      mcse;
      deadline_ns = 0;
      cancelled = false;
      ts_ns = 0;
    }

let test_flight_note_and_find () =
  Flight.configure ~capacity:32 ();
  Fun.protect ~finally:Flight.disable (fun () ->
      check_bool "enabled" true (Flight.enabled ());
      check_int "capacity" 32 (Flight.capacity ());
      note ~id:"q-1" ~tenant:"a" ~kind:"flow 0 1" ~path:Flight.Exact
        ~version:3 ~digest:"d1" ~plan_ns:1000 ~serialize_ns:2000 ();
      note ~id:"q-2" ~tenant:"b" ~kind:"flow 1 2" ~path:Flight.Mh
        ~fallback:"cyclic" ~queue_wait_ns:10 ~sample_ns:5000 ~rounds:2
        ~samples:800 ~rhat:1.01 ~mcse:0.004 ();
      (match Flight.recent 10 with
      | [ r2; r1 ] ->
        check_string "newest first" "q-2" r2.Flight.id;
        check_string "oldest last" "q-1" r1.Flight.id;
        check_bool "seq ordered" true (r2.Flight.seq > r1.Flight.seq);
        check_string "tenant" "b" r2.Flight.tenant;
        check_string "fallback" "cyclic" r2.Flight.fallback;
        check_int "samples" 800 r2.Flight.samples;
        check_int "version default" (-1) r2.Flight.version;
        check_int "version recorded" 3 r1.Flight.version;
        check_bool "ts stamped" true (r1.Flight.ts_ns > 0)
      | l -> Alcotest.failf "expected 2 records, got %d" (List.length l));
      (match Flight.find "q-1" with
      | Some r ->
        check_string "find by id" "q-1" r.Flight.id;
        check_string "path" "exact" (Flight.string_of_path r.Flight.path)
      | None -> Alcotest.fail "q-1 not found");
      check_bool "miss is None" true (Flight.find "nope" = None);
      (* records are immutable and shared, never copied: recording more
         leaves a held one as it was *)
      let held = List.hd (Flight.recent 1) in
      check_bool "scrapes share the stored record" true
        (match Flight.find "q-2" with Some r -> r == held | None -> false);
      note ~id:"q-3" ~tenant:"c" ~kind:"k" ~path:Flight.Err
        ~error:"bad_request" ();
      check_string "held copy untouched" "q-2" held.Flight.id;
      Flight.clear ();
      check_int "clear empties" 0 (List.length (Flight.recent 10));
      check_bool "still enabled after clear" true (Flight.enabled ()))

let test_flight_ring_overwrites () =
  (* capacity is a hard bound: old records fall off, the newest N
     survive, and every surviving record is intact *)
  Flight.configure ~capacity:8 ();
  Fun.protect ~finally:Flight.disable (fun () ->
      for i = 1 to 100 do
        note ~id:(Printf.sprintf "q-%d" i) ~tenant:"t" ~kind:"k"
          ~path:Flight.Cache ~queue_wait_ns:i ()
      done;
      let recs = Flight.recent 1000 in
      check_int "capacity" 8 (Flight.capacity ());
      check_int "holds exactly its capacity" 8 (List.length recs);
      (* the survivors are the last 8 written, newest first *)
      check_bool "ids q-100 down to q-93" true
        (List.map (fun r -> r.Flight.id) recs
        = List.init 8 (fun i -> Printf.sprintf "q-%d" (100 - i)));
      let seqs = List.map (fun r -> r.Flight.seq) recs in
      check_bool "newest first" true
        (List.sort (fun a b -> compare b a) seqs = seqs);
      List.iter
        (fun r ->
          let n = int_of_string (String.sub r.Flight.id 2
                                   (String.length r.Flight.id - 2)) in
          check_int "fields consistent" n r.Flight.queue_wait_ns)
        recs)

let test_flight_disabled_gate () =
  Flight.disable ();
  check_bool "disabled" false (Flight.enabled ());
  check_int "no capacity" 0 (Flight.capacity ());
  note ~id:"x" ~tenant:"t" ~kind:"k" ~path:Flight.Mh ();
  check_int "submit records nothing" 0 (List.length (Flight.recent 10));
  check_bool "find misses" true (Flight.find "x" = None)

let test_flight_to_json () =
  Flight.configure ~capacity:4 ();
  Fun.protect ~finally:Flight.disable (fun () ->
      note ~id:"j\"1" ~tenant:"t" ~kind:"flow 0 1" ~path:Flight.Mh
        ~fallback:"cyclic" ~version:2 ~digest:"ab" ~queue_wait_ns:5
        ~plan_ns:6 ~sample_ns:7 ~serialize_ns:8 ~rounds:1 ~samples:100
        ~rhat:1.5 ~mcse:0.25 ();
      note ~id:"j2" ~tenant:"t" ~kind:"k" ~path:Flight.Err
        ~error:"over_capacity" ();
      List.iter
        (fun r ->
          let s = Flight.to_json r in
          match Jsonl.parse s with
          | Error msg -> Alcotest.failf "to_json unparseable %S: %s" s msg
          | Ok json ->
            check_string "id round-trips (escaped)" r.Flight.id
              (Option.get
                 (Jsonl.to_string (field "request_id" json)));
            check_string "path" (Flight.string_of_path r.Flight.path)
              (Option.get (Jsonl.to_string (field "path" json))))
        (Flight.recent 10);
      (* nan diagnostics serialise as null, keeping the JSON valid *)
      let err = List.hd (Flight.recent 1) in
      check_bool "nan -> null" true
        (match Jsonl.member "rhat" (Result.get_ok
                                      (Jsonl.parse (Flight.to_json err))) with
        | Some Jsonl.Null -> true
        | _ -> false))

(* ---------- logger ---------- *)

let test_log_levels () =
  List.iter
    (fun (s, expect) ->
      check_bool s true (Log.level_of_string s = expect))
    [
      ("error", Result.Ok Log.Error);
      ("err", Result.Ok Log.Error);
      ("warn", Result.Ok Log.Warn);
      ("warning", Result.Ok Log.Warn);
      ("info", Result.Ok Log.Info);
      ("debug", Result.Ok Log.Debug);
    ];
  check_bool "unknown level rejected" true
    (match Log.level_of_string "loud" with
    | Result.Error _ -> true
    | Result.Ok _ -> false);
  let prev = Log.level () in
  Fun.protect ~finally:(fun () -> Log.set_level prev) (fun () ->
      Log.set_level Log.Error;
      (* must not raise, and must not evaluate anything visible *)
      Log.debug ~component:"test" "dropped %d" 1;
      Log.err ~component:"test" "kept (stderr) %d" 2)

(* capture stderr into a file across [f] — the logger writes (and
   flushes) whole lines to stderr under its mutex, so redirecting the
   fd sees exactly what a terminal would *)
let with_captured_stderr f =
  let path = Filename.temp_file "iflow_log_capture" ".txt" in
  flush stderr;
  let saved = Unix.dup Unix.stderr in
  let fd = Unix.openfile path [ Unix.O_WRONLY; Unix.O_TRUNC ] 0o600 in
  Unix.dup2 fd Unix.stderr;
  Unix.close fd;
  Fun.protect
    ~finally:(fun () ->
      flush stderr;
      Unix.dup2 saved Unix.stderr;
      Unix.close saved)
    f;
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () -> read_file path)

let test_log_line_format () =
  let prev = Log.level () in
  Fun.protect ~finally:(fun () -> Log.set_level prev) (fun () ->
      Log.set_level Log.Info;
      let out =
        with_captured_stderr (fun () ->
            Log.info ~component:"fmt" ~rid:"r-9" "payload %d" 42)
      in
      let line = String.trim out in
      (* <seconds>.<micros> info [fmt] rid=r-9 payload 42 *)
      (match String.index_opt line ' ' with
      | Some i ->
        let ts = String.sub line 0 i in
        check_bool "monotonic timestamp prefix" true
          (match float_of_string_opt ts with
          | Some t -> t >= 0.0 && String.contains ts '.'
          | None -> false)
      | None -> Alcotest.failf "no timestamp prefix in %S" line);
      check_bool "level" true (contains line " info ");
      check_bool "component" true (contains line "[fmt]");
      check_bool "rid key" true (contains line "rid=r-9");
      check_bool "message last" true (contains line "payload 42"))

let test_log_concurrent_writers_never_interleave () =
  let prev = Log.level () in
  Fun.protect ~finally:(fun () -> Log.set_level prev) (fun () ->
      Log.set_level Log.Info;
      let domains = 4 and per_domain = 250 in
      let out =
        with_captured_stderr (fun () ->
            let workers =
              List.init domains (fun d ->
                  Domain.spawn (fun () ->
                      for i = 1 to per_domain do
                        Log.info ~component:"race"
                          ~rid:(Printf.sprintf "d%d-%d" d i)
                          "begin-%d-%d-end" d i
                      done))
            in
            List.iter Domain.join workers)
      in
      let lines =
        List.filter (fun l -> l <> "") (String.split_on_char '\n' out)
      in
      check_int "every line arrived whole"
        (domains * per_domain)
        (List.length lines);
      (* a torn write would split the begin-…-end marker across lines,
         or fuse two records onto one *)
      let count needle hay =
        let nn = String.length needle and nh = String.length hay in
        let c = ref 0 in
        for i = 0 to nh - nn do
          if String.sub hay i nn = needle then incr c
        done;
        !c
      in
      List.iter
        (fun l ->
          check_bool "line intact" true
            (contains l "[race]" && contains l "-end");
          check_int "exactly one record per line" 1 (count "begin-" l))
        lines)

let () =
  Alcotest.run "obs"
    [
      ( "histogram",
        qcheck [ histogram_quantile_matches_brute_force ]
        @ [
            Alcotest.test_case "edge cases" `Quick test_histogram_edges;
          ] );
      ( "shards",
        [
          Alcotest.test_case "Domain.spawn merge" `Quick test_sharded_merge;
          Alcotest.test_case "counter semantics" `Quick test_counter_semantics;
        ] );
      ( "determinism",
        [
          Alcotest.test_case "estimator bit-for-bit" `Quick
            test_bit_for_bit_estimator;
          Alcotest.test_case "engine bit-for-bit" `Quick
            test_bit_for_bit_engine;
          Alcotest.test_case "flight + trace + rid bit-for-bit" `Quick
            test_bit_for_bit_flight_and_rid;
        ] );
      ( "prometheus",
        [
          Alcotest.test_case "exposition well-formed" `Quick
            test_prometheus_well_formed;
          Alcotest.test_case "default registry valid + namespaced" `Quick
            test_prometheus_default_registry_checks;
          Alcotest.test_case "checker rejects malformed" `Quick
            test_prometheus_check_rejects;
        ] );
      ( "trace",
        [
          Alcotest.test_case "JSONL round-trip" `Quick test_trace_round_trip;
          Alcotest.test_case "reinstall closes the previous sink" `Quick
            test_trace_reinstall_closes_previous;
        ] );
      ( "flight",
        [
          Alcotest.test_case "note, recent, find, clear" `Quick
            test_flight_note_and_find;
          Alcotest.test_case "ring overwrites, stays bounded" `Quick
            test_flight_ring_overwrites;
          Alcotest.test_case "disabled gate" `Quick test_flight_disabled_gate;
          Alcotest.test_case "to_json round-trips" `Quick test_flight_to_json;
        ] );
      ( "log",
        [
          Alcotest.test_case "levels" `Quick test_log_levels;
          Alcotest.test_case "line format" `Quick test_log_line_format;
          Alcotest.test_case "concurrent writers never interleave" `Quick
            test_log_concurrent_writers_never_interleave;
        ] );
    ]
