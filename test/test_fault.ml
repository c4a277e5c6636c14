(* Tests for the fault-tolerance layer (lib/fault) and its wiring:
   CRC-32 checkpoints, failpoint injection, retry supervision, atomic
   writes with rotation, degraded engine/runner behaviour, and the
   SIGKILL crash-recovery property:

     kill an ingest child at a random instant; recovering from the
     newest valid checkpoint and replaying the rest of the log must
     reach the exact final digest of an uninterrupted run. *)

module Rng = Iflow_stats.Rng
module Gen = Iflow_graph.Gen
module Digraph = Iflow_graph.Digraph
module Icm = Iflow_core.Icm
module Beta_icm = Iflow_core.Beta_icm
module Cascade = Iflow_core.Cascade
module Engine = Iflow_engine.Engine
module Query = Iflow_engine.Query
module Model_io = Iflow_io.Model_io
module Event = Iflow_stream.Event
module Online = Iflow_stream.Online
module Snapshot = Iflow_stream.Snapshot
module Runner = Iflow_stream.Runner
module Crc32 = Iflow_fault.Crc32
module Fail = Iflow_fault.Fail
module Retry = Iflow_fault.Retry
module Durable = Iflow_fault.Durable

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)
let check_string = Alcotest.(check string)

let contains needle hay =
  let n = String.length needle and h = String.length hay in
  let rec go i = i + n <= h && (String.sub hay i n = needle || go (i + 1)) in
  go 0

let with_temp_file f =
  let path = Filename.temp_file "iflow_fault_test" ".bicm" in
  let cleanup () =
    (* the rotated set and the atomic-write temporary ride along *)
    List.iter
      (fun p -> if Sys.file_exists p then Sys.remove p)
      (Durable.tmp_of path :: List.init 8 (Durable.rotated path))
  in
  Fun.protect ~finally:cleanup (fun () -> Fail.reset (); f path)

(* every test that arms failpoints must leave the registry clean *)
let with_failpoints f = Fun.protect ~finally:Fail.reset f

(* ---------- Crc32 ---------- *)

let test_crc32_known_answers () =
  (* the standard CRC-32/ISO-HDLC check value *)
  check_int "123456789" 0xcbf43926 (Crc32.string "123456789");
  check_int "empty" 0 (Crc32.string "");
  check_string "hex" "cbf43926" (Crc32.to_hex (Crc32.string "123456789"));
  check_bool "of_hex inverts" true
    (Crc32.of_hex "cbf43926" = Some 0xcbf43926);
  check_bool "of_hex rejects" true
    (Crc32.of_hex "xyz" = None && Crc32.of_hex "cbf4392" = None)

let test_crc32_chunked () =
  let s = String.init 257 (fun i -> Char.chr (i * 7 mod 256)) in
  let whole = Crc32.string s in
  let chunked =
    let crc = Crc32.update 0 s 0 100 in
    let crc = Crc32.update crc s 100 1 in
    Crc32.update crc s 101 (String.length s - 101)
  in
  check_int "chunked = whole" whole chunked;
  check_bool "range checked" true
    (match Crc32.update 0 s 200 100 with
    | exception Invalid_argument _ -> true
    | _ -> false)

(* ---------- Fail ---------- *)

let test_fail_disarmed () =
  Fail.reset ();
  check_bool "disabled" false (Fail.enabled ());
  Fail.point "anything" (* must be a no-op *)

let test_fail_arm_and_count () =
  with_failpoints (fun () ->
      Fail.arm ~count:2 "x";
      check_bool "enabled" true (Fail.enabled ());
      let fired name =
        match Fail.point name with
        | () -> false
        | exception Fail.Injected n ->
          check_string "carries name" name n;
          true
      in
      check_bool "other points untouched" false (fired "y");
      check_bool "first" true (fired "x");
      check_bool "second" true (fired "x");
      check_bool "exhausted" false (fired "x");
      check_int "hits" 2 (Fail.hits "x");
      Fail.arm "z";
      Fail.disarm "z";
      check_bool "disarmed" false (fired "z"))

let test_fail_probability () =
  with_failpoints (fun () ->
      Fail.set_seed 42;
      Fail.arm ~prob:0.0 "never";
      for _ = 1 to 100 do
        Fail.point "never"
      done;
      check_int "prob 0 never fires" 0 (Fail.hits "never");
      Fail.arm ~prob:0.5 "half";
      let fired = ref 0 in
      for _ = 1 to 1000 do
        match Fail.point "half" with
        | () -> ()
        | exception Fail.Injected _ -> incr fired
      done;
      check_bool "prob 0.5 fires about half the time" true
        (!fired > 350 && !fired < 650);
      (* reseeding reproduces the exact draw sequence *)
      let run_seeded () =
        Fail.set_seed 7;
        Fail.arm ~prob:0.3 "seeded";
        let fired = ref [] in
        for i = 1 to 50 do
          match Fail.point "seeded" with
          | () -> ()
          | exception Fail.Injected _ -> fired := i :: !fired
        done;
        !fired
      in
      check_bool "deterministic under a seed" true (run_seeded () = run_seeded ()))

let test_fail_wildcard () =
  with_failpoints (fun () ->
      Fail.arm "*";
      check_bool "wildcard catches" true
        (match Fail.point "some.site" with
        | exception Fail.Injected _ -> true
        | () -> false);
      Fail.arm ~prob:0.0 "some.site";
      (* a specific entry shadows the catch-all *)
      Fail.point "some.site")

let test_fail_configure () =
  with_failpoints (fun () ->
      (match Fail.configure "a=raise;b=2*raise;c=50%raise;d=1%3*raise" with
      | Ok () -> ()
      | Error e -> Alcotest.failf "spec rejected: %s" e);
      check_bool "a armed" true
        (match Fail.point "a" with
        | exception Fail.Injected _ -> true
        | () -> false);
      (match Fail.configure "a=off" with
      | Ok () -> ()
      | Error e -> Alcotest.failf "off rejected: %s" e);
      Fail.point "a";
      List.iter
        (fun bad ->
          check_bool bad true (Result.is_error (Fail.configure bad)))
        [ "noeq"; "x="; "x=150%raise"; "x=0*raise"; "x=launch"; "=raise" ])

(* ---------- Retry ---------- *)

let test_retry_rides_out_transients () =
  let calls = ref 0 in
  let v =
    Retry.with_policy Retry.no_delay (fun () ->
        incr calls;
        if !calls < 3 then failwith "transient";
        "ok")
  in
  check_string "succeeds" "ok" v;
  check_int "attempts" 3 !calls

let test_retry_exhausts () =
  let calls = ref 0 in
  let retries = ref [] in
  (match
     Retry.with_policy
       ~on_retry:(fun ~attempt ~delay:_ e ->
         check_bool "sees the exn" true (e = Failure "persistent");
         retries := attempt :: !retries)
       Retry.no_delay
       (fun () ->
         incr calls;
         failwith "persistent")
   with
  | _ -> Alcotest.fail "should have raised"
  | exception Failure m -> check_string "last exn propagates" "persistent" m);
  check_int "max_attempts honoured" Retry.no_delay.Retry.max_attempts !calls;
  check_bool "on_retry saw each re-attempt" true (List.rev !retries = [ 1; 2 ])

let test_retry_retryable_filter () =
  let calls = ref 0 in
  (match
     Retry.with_policy
       ~retryable:(function Failure _ -> false | _ -> true)
       Retry.no_delay
       (fun () ->
         incr calls;
         failwith "fatal")
   with
  | _ -> Alcotest.fail "should have raised"
  | exception Failure _ -> ());
  check_int "not retried" 1 !calls

let test_retry_backoff_and_budget () =
  let p =
    {
      Retry.max_attempts = 10;
      base_delay = 1.0;
      multiplier = 2.0;
      jitter = 0.0;
      max_delay = 5.0;
      budget = None;
    }
  in
  check_bool "geometric then capped" true
    (Retry.delay_for p ~attempt:1 = 1.0
    && Retry.delay_for p ~attempt:2 = 2.0
    && Retry.delay_for p ~attempt:3 = 4.0
    && Retry.delay_for p ~attempt:4 = 5.0);
  (* a 2.5-delay budget admits sleeps 1 + 2 = 3? no: 1 fits, 1+2 > 2.5,
     so the third attempt is never made *)
  let slept = ref 0.0 in
  let calls = ref 0 in
  (match
     Retry.with_policy
       ~sleep:(fun d -> slept := !slept +. d)
       { p with budget = Some 2.5 }
       (fun () ->
         incr calls;
         failwith "always")
   with
  | _ -> Alcotest.fail "should have raised"
  | exception Failure _ -> ());
  check_int "budget cut the attempts" 2 !calls;
  check_bool "slept only the admitted delay" true (!slept = 1.0)

(* ---------- Durable ---------- *)

let read_file path =
  let ic = open_in_bin path in
  let s = really_input_string ic (in_channel_length ic) in
  close_in ic;
  s

let test_durable_write_atomic () =
  with_temp_file (fun path ->
      Durable.write_atomic path (fun oc -> output_string oc "first\n");
      check_string "written" "first\n" (read_file path);
      check_bool "tmp gone" false (Sys.file_exists (Durable.tmp_of path));
      (* tearing any stage leaves the previous content untouched *)
      List.iter
        (fun stage ->
          with_failpoints (fun () ->
              Fail.arm ("durable." ^ stage);
              (match
                 Durable.write_atomic path (fun oc -> output_string oc "second\n")
               with
              | () -> Alcotest.failf "%s did not tear" stage
              | exception Fail.Injected _ -> ());
              check_string (stage ^ " left original") "first\n" (read_file path);
              check_bool (stage ^ " cleaned tmp") false
                (Sys.file_exists (Durable.tmp_of path))))
        [ "write"; "fsync"; "rename" ];
      (* and an exception from the content writer itself does too *)
      (match
         Durable.write_atomic path (fun oc ->
             output_string oc "gar";
             failwith "writer died")
       with
      | () -> Alcotest.fail "should have raised"
      | exception Failure _ -> ());
      check_string "still original" "first\n" (read_file path))

let test_durable_rotation () =
  with_temp_file (fun path ->
      let write s = Durable.write_atomic path (fun oc -> output_string oc s) in
      check_bool "keep validated" true
        (match Durable.rotate path ~keep:0 with
        | exception Invalid_argument _ -> true
        | () -> false);
      write "g3";
      Durable.rotate path ~keep:3;
      write "g2";
      Durable.rotate path ~keep:3;
      write "g1";
      Durable.rotate path ~keep:3;
      write "g0";
      check_string "current" "g0" (read_file path);
      check_string "gen1" "g1" (read_file (Durable.rotated path 1));
      check_string "gen2" "g2" (read_file (Durable.rotated path 2));
      check_bool "g3 rotated out" false (Sys.file_exists (Durable.rotated path 3));
      check_bool "newest first" true
        (Durable.generations path ~limit:8
        = [ path; Durable.rotated path 1; Durable.rotated path 2 ]);
      (* a crash can leave generation 0 missing; older ones still count *)
      Sys.remove path;
      check_bool "gap at current tolerated" true
        (Durable.generations path ~limit:8
        = [ Durable.rotated path 1; Durable.rotated path 2 ]);
      Sys.remove (Durable.rotated path 1);
      check_bool "interior gap stops the walk" true
        (Durable.generations path ~limit:8 = []))

(* ---------- Model_io integrity: every truncation, every bit flip ---------- *)

let tiny_model () =
  let g = Digraph.of_edges ~nodes:3 [ (0, 1); (1, 2); (0, 2) ] in
  Beta_icm.observe_many (Beta_icm.uninformed g) [ (0, true); (2, false) ]

let test_model_io_every_truncation () =
  let model = tiny_model () in
  with_temp_file (fun path ->
      Model_io.save_beta_icm path model;
      let full = read_file path in
      let n = String.length full in
      for len = 0 to n - 1 do
        let oc = open_out_bin path in
        output_string oc (String.sub full 0 len);
        close_out oc;
        match Model_io.load_beta_icm path with
        | _ -> Alcotest.failf "truncation to %d/%d bytes loaded" len n
        | exception Failure _ -> ()
      done)

let test_model_io_every_bit_flip () =
  let model = tiny_model () in
  with_temp_file (fun path ->
      Model_io.save_beta_icm path model;
      let full = read_file path in
      let n = String.length full in
      for pos = 0 to n - 1 do
        for bit = 0 to 7 do
          let flipped = Bytes.of_string full in
          Bytes.set flipped pos
            (Char.chr (Char.code full.[pos] lxor (1 lsl bit)));
          let oc = open_out_bin path in
          output_bytes oc flipped;
          close_out oc;
          match Model_io.load_beta_icm path with
          | _ -> Alcotest.failf "bit %d of byte %d flipped, still loaded" bit pos
          | exception Failure _ -> ()
        done
      done)

let test_model_io_errors_name_the_damage () =
  let model = tiny_model () in
  with_temp_file (fun path ->
      Model_io.save_beta_icm path model;
      let full = read_file path in
      let oc = open_out_bin path in
      output_string oc (String.sub full 0 (String.length full - 3));
      close_out oc;
      match Model_io.load_beta_icm path with
      | _ -> Alcotest.fail "truncated file loaded"
      | exception Failure msg ->
        check_bool "names the file" true (contains path msg);
        check_bool "names the cause" true
          (contains "crc32" msg || contains "truncated" msg))

(* ---------- Snapshot: rotation, retry, recover fallback ---------- *)

let test_snapshot_checkpoint_retry () =
  with_temp_file (fun path ->
      with_failpoints (fun () ->
          let model = tiny_model () in
          let snap =
            Snapshot.create ~checkpoint_path:path ~keep:2
              ~retry:Retry.no_delay model
          in
          (* one transient fault per write: every checkpoint needs one retry *)
          Fail.arm ~count:1 "snapshot.checkpoint";
          Snapshot.checkpoint snap;
          check_int "fault ridden out" 1 (Fail.hits "snapshot.checkpoint");
          let m, off, ver = Snapshot.recover path in
          check_string "checkpoint valid" (Beta_icm.digest model)
            (Beta_icm.digest m);
          check_int "offset" 0 off;
          check_int "version" 0 ver))

let test_snapshot_recover_falls_back () =
  with_temp_file (fun path ->
      let model = tiny_model () in
      let snap =
        Snapshot.create ~checkpoint_path:path ~keep:3 ~retry:Retry.no_delay
          model
      in
      Snapshot.checkpoint snap;
      let m2 = Beta_icm.observe model ~edge:1 ~fired:true in
      ignore (Snapshot.publish snap m2 ~offset:40);
      Snapshot.checkpoint snap;
      (* tear the newest generation *)
      let full = read_file path in
      let oc = open_out_bin path in
      output_string oc (String.sub full 0 (String.length full / 2));
      close_out oc;
      let skipped = ref [] in
      let m, off, ver =
        Snapshot.recover
          ~on_skip:(fun ~path ~reason ->
            check_bool "reason is concrete" true (String.length reason > 0);
            skipped := path :: !skipped)
          path
      in
      check_bool "damaged generation reported" true (!skipped = [ path ]);
      check_string "previous generation recovered" (Beta_icm.digest model)
        (Beta_icm.digest m);
      check_int "its offset" 0 off;
      check_int "its version" 0 ver;
      (* rewrite a good v1, then tear the NEXT write at the rename:
         atomicity means the destination is never touched, and recover
         still finds v1 one generation down *)
      Snapshot.checkpoint snap;
      with_failpoints (fun () ->
          Fail.arm "model_io.rename";
          (match Snapshot.checkpoint snap with
          | () -> Alcotest.fail "rename failpoint did not fire"
          | exception Fail.Injected _ -> ());
          Fail.reset ();
          let m, off, ver =
            Snapshot.recover ~on_skip:(fun ~path:_ ~reason:_ -> ()) path
          in
          check_int "rotation preserved the good generation" 1 ver;
          check_int "and its offset" 40 off;
          check_string "and its model" (Beta_icm.digest m2) (Beta_icm.digest m)))

let test_snapshot_recover_missing () =
  check_bool "no checkpoint at all" true
    (match Snapshot.recover "/nonexistent/iflow.bicm" with
    | exception Sys_error _ -> true
    | _ -> false)

(* ---------- Engine: degraded queries ---------- *)

let five_node_model seed =
  let rng = Rng.create seed in
  let g = Gen.gnm rng ~nodes:5 ~edges:12 in
  Icm.create g (Array.init 12 (fun _ -> 0.1 +. (0.8 *. Rng.uniform rng)))

let light_config =
  {
    Engine.default_config with
    Engine.chains = 4;
    domains = Some 1;
    burn_in = 50;
    thin = 2;
    round_samples = 50;
    max_samples = 400;
    rhat_target = 10.0;
    mcse_target = 1.0;
  }

let test_engine_degrades_and_recovers () =
  with_failpoints (fun () ->
      let engine =
        Engine.create ~config:light_config ~seed:5 (five_node_model 8)
      in
      let q = Query.flow ~src:0 ~dst:4 () in
      Fail.arm ~count:1 "engine.chain";
      let degraded = Engine.query engine q in
      check_int "one chain lost" 3 degraded.Engine.chains_used;
      check_bool "still an estimate" true
        (Float.is_finite degraded.Engine.estimate);
      Fail.reset ();
      (* the degraded answer was not cached: the same query re-samples
         at full strength and only then becomes cacheable *)
      let full = Engine.query engine q in
      check_bool "re-sampled" false full.Engine.cached;
      check_int "full strength" 4 full.Engine.chains_used;
      check_bool "now cached" true (Engine.query engine q).Engine.cached)

let test_engine_too_many_chains_lost () =
  with_failpoints (fun () ->
      let engine =
        Engine.create ~config:light_config ~seed:5 (five_node_model 8)
      in
      Fail.arm "engine.chain";
      (match Engine.query engine (Query.flow ~src:0 ~dst:4 ()) with
      | _ -> Alcotest.fail "should have failed"
      | exception Engine.Chains_failed { failed; chains; _ } ->
        check_int "chains" 4 chains;
        check_bool "majority lost" true (2 * failed > chains));
      Fail.reset ();
      (* the engine itself survived *)
      let r = Engine.query engine (Query.flow ~src:0 ~dst:4 ()) in
      check_int "healthy afterwards" 4 r.Engine.chains_used)

(* ---------- Runner: on_error policies and degraded swaps ---------- *)

let substrate seed ~events =
  let rng = Rng.create seed in
  let g = Gen.gnm rng ~nodes:30 ~edges:120 in
  let m = Digraph.n_edges g in
  let icm =
    Icm.create g (Array.init m (fun _ -> 0.1 +. (0.6 *. Rng.uniform rng)))
  in
  let lines =
    List.init events (fun _ ->
        Event.to_line
          (Event.of_attributed g
             (Cascade.run rng icm ~sources:[ Rng.int rng (Digraph.n_nodes g) ])))
  in
  (g, lines)

(* a source whose every [period]-th pull raises before yielding *)
let flaky_source lines ~period =
  let rest = ref lines and pulls = ref 0 and pending = ref false in
  fun () ->
    incr pulls;
    if !pulls mod period = 0 && not !pending then begin
      pending := true;
      failwith "flaky read"
    end
    else begin
      pending := false;
      match !rest with
      | [] -> None
      | l :: tl ->
        rest := tl;
        Some l
    end

let test_runner_on_error_policies () =
  let g, lines = substrate 21 ~events:120 in
  let run policy source =
    Runner.run ~on_error:policy
      { Runner.batch = 32; checkpoint_every = None }
      (Online.create (Beta_icm.uninformed g))
      (Snapshot.create (Beta_icm.uninformed g))
      source
  in
  let final_digest r = Beta_icm.digest r.Runner.final.Snapshot.model in
  let reference = run Runner.Fail_fast (Runner.lines_of_list lines) in
  check_bool "fail-fast raises" true
    (match run Runner.Fail_fast (flaky_source lines ~period:50) with
    | exception Failure _ -> true
    | _ -> false);
  let skipped = run Runner.Skip_line (flaky_source lines ~period:50) in
  check_bool "skip absorbs the faults" true
    (skipped.Runner.read_errors > 0);
  check_string "and loses no lines (faults hit pulls, not data)"
    (final_digest reference) (final_digest skipped);
  let retried = run (Runner.Retry_reads Retry.no_delay)
      (flaky_source lines ~period:50)
  in
  check_string "retry reaches the same model"
    (final_digest reference) (final_digest retried);
  (* a permanently dead source must not spin Skip_line forever *)
  let dead () = failwith "dead source" in
  check_bool "skip gives up on a dead source" true
    (match run Runner.Skip_line dead with
    | exception Failure _ -> true
    | _ -> false)

let test_runner_degraded_swap () =
  with_failpoints (fun () ->
      let g, lines = substrate 22 ~events:100 in
      let prior = Beta_icm.uninformed g in
      let engine =
        Engine.create ~config:light_config ~seed:3
          (Beta_icm.expected_icm prior)
      in
      let stages = ref [] in
      Fail.arm ~count:2 "runner.swap";
      let report =
        Runner.run ~engine
          ~on_degraded:(fun ~stage _ -> stages := stage :: !stages)
          { Runner.batch = 25; checkpoint_every = None }
          (Online.create prior) (Snapshot.create prior)
          (Runner.lines_of_list lines)
      in
      check_int "both torn swaps counted" 2 report.Runner.swap_failures;
      check_bool "callback saw them" true
        (List.for_all (( = ) "swap") !stages && List.length !stages = 2);
      (* later swaps landed: the engine ended on the final version *)
      check_string "engine caught up"
        (Icm.digest (Beta_icm.expected_icm report.Runner.final.Snapshot.model))
        (Engine.digest engine);
      check_int "and is tagged with its id" report.Runner.final.Snapshot.id
        (fst (Engine.version engine)))

let test_runner_checkpoint_failure_keeps_going () =
  with_temp_file (fun path ->
      with_failpoints (fun () ->
          let g, lines = substrate 23 ~events:100 in
          let prior = Beta_icm.uninformed g in
          Fail.arm "snapshot.checkpoint" (* every write fails, forever *);
          let report =
            Runner.run
              { Runner.batch = 25; checkpoint_every = Some 30 }
              (Online.create prior)
              (Snapshot.create ~checkpoint_path:path ~retry:Retry.no_delay
                 prior)
              (Runner.lines_of_list lines)
          in
          check_int "no checkpoint landed" 0 report.Runner.checkpoints_written;
          check_bool "all attempts failed" true
            (report.Runner.checkpoint_failures > 0);
          check_int "but every line was ingested" 100 report.Runner.lines))

(* The SIGKILL crash-recovery property test lives in test_crash.ml:
   Unix.fork is forbidden once any domain has been spawned. *)

let () =
  Alcotest.run "fault"
    [
      ( "crc32",
        [
          Alcotest.test_case "known answers" `Quick test_crc32_known_answers;
          Alcotest.test_case "chunked update" `Quick test_crc32_chunked;
        ] );
      ( "failpoints",
        [
          Alcotest.test_case "disarmed is a no-op" `Quick test_fail_disarmed;
          Alcotest.test_case "arm, count, disarm" `Quick test_fail_arm_and_count;
          Alcotest.test_case "probability triggers" `Quick test_fail_probability;
          Alcotest.test_case "wildcard" `Quick test_fail_wildcard;
          Alcotest.test_case "spec grammar" `Quick test_fail_configure;
        ] );
      ( "retry",
        [
          Alcotest.test_case "rides out transients" `Quick
            test_retry_rides_out_transients;
          Alcotest.test_case "exhausts and re-raises" `Quick test_retry_exhausts;
          Alcotest.test_case "retryable filter" `Quick
            test_retry_retryable_filter;
          Alcotest.test_case "backoff and budget" `Quick
            test_retry_backoff_and_budget;
        ] );
      ( "durable",
        [
          Alcotest.test_case "atomic write survives tearing" `Quick
            test_durable_write_atomic;
          Alcotest.test_case "rotation and generations" `Quick
            test_durable_rotation;
        ] );
      ( "model-io-integrity",
        [
          Alcotest.test_case "every truncation fails cleanly" `Quick
            test_model_io_every_truncation;
          Alcotest.test_case "every bit flip fails cleanly" `Slow
            test_model_io_every_bit_flip;
          Alcotest.test_case "errors name the damage" `Quick
            test_model_io_errors_name_the_damage;
        ] );
      ( "snapshot",
        [
          Alcotest.test_case "checkpoint rides out a fault" `Quick
            test_snapshot_checkpoint_retry;
          Alcotest.test_case "recover falls back past damage" `Quick
            test_snapshot_recover_falls_back;
          Alcotest.test_case "missing checkpoint" `Quick
            test_snapshot_recover_missing;
        ] );
      ( "engine",
        [
          Alcotest.test_case "degrades and recovers" `Quick
            test_engine_degrades_and_recovers;
          Alcotest.test_case "too many chains lost" `Quick
            test_engine_too_many_chains_lost;
        ] );
      ( "runner",
        [
          Alcotest.test_case "on_error policies" `Quick
            test_runner_on_error_policies;
          Alcotest.test_case "degraded swaps" `Quick test_runner_degraded_swap;
          Alcotest.test_case "checkpoint failures" `Quick
            test_runner_checkpoint_failure_keeps_going;
        ] );
    ]
