(* Ingest-path benchmark: the JSONL and the binary event log through the
   one evidence applier (Online), on the paper's timing setting (~6K
   users, ~12K edges).

   The same simulated attributed-cascade stream is ingested three ways:
   - jsonl: Online.apply_line per line;
   - bin: Binlog.Reader.next per record through Online.apply_record
     (posterior bit-identical to the jsonl path — asserted here);
   - end to end: the binary path through Runner.run_binlog at publish
     batch 500.

   The final digest and the host's core count are recorded with the
   rates. Results go to BENCH_PR7.json (committed). --quick (or
   IFLOW_BENCH_QUICK=1) shortens the run for CI. *)

module Rng = Iflow_stats.Rng
module Gen = Iflow_graph.Gen
module Digraph = Iflow_graph.Digraph
module Beta_icm = Iflow_core.Beta_icm
module Cascade = Iflow_core.Cascade
module Generator = Iflow_core.Generator
module Event = Iflow_stream.Event
module Online = Iflow_stream.Online
module Snapshot = Iflow_stream.Snapshot
module Runner = Iflow_stream.Runner
module Binlog = Iflow_stream.Binlog
module Clock = Iflow_obs.Clock

let quick =
  Array.exists (fun a -> a = "--quick") Sys.argv
  || Sys.getenv_opt "IFLOW_BENCH_QUICK" <> None

let n_events = if quick then 5_000 else 200_000
let runner_batch = 500

let timed f =
  let t0 = Clock.now_ns () in
  let x = f () in
  (x, Clock.seconds_of_ns (Clock.elapsed_ns t0))

let () =
  let rng = Rng.create 20120402 in
  let g = Gen.preferential_attachment rng ~nodes:6000 ~mean_out_degree:2 in
  let truth = Generator.retweet_ground_truth rng g in
  let cores = Domain.recommended_domain_count () in
  Printf.printf
    "ingest bench: %d nodes, %d edges, %d events, %d cores (quick=%b)\n%!"
    (Digraph.n_nodes g) (Digraph.n_edges g) n_events cores quick;

  let events =
    List.init n_events (fun _ ->
        let src = Rng.int rng (Digraph.n_nodes g) in
        Event.of_attributed g (Cascade.run rng truth ~sources:[ src ]))
  in
  let lines = List.map Event.to_line events in
  let prior = Beta_icm.uninformed g in

  (* the binary twin of the log, segments on disk as in production *)
  let log = Filename.temp_file "iflow_ingest_bench" ".ibl" in
  let cleanup () =
    let rec rm k =
      let p = Binlog.segment_path log k in
      if Sys.file_exists p then begin
        Sys.remove p;
        rm (k + 1)
      end
    in
    rm 0
  in
  Fun.protect ~finally:cleanup @@ fun () ->
  let bytes_jsonl =
    List.fold_left (fun a l -> a + String.length l + 1) 0 lines
  in
  let w = Binlog.Writer.create log in
  let (), convert_dt =
    timed (fun () -> List.iter (Binlog.Writer.append w) events)
  in
  Binlog.Writer.close w;
  let bytes_bin =
    let rec total k acc =
      let p = Binlog.segment_path log k in
      if Sys.file_exists p then
        total (k + 1) (acc + (Unix.stat p).Unix.st_size)
      else acc
    in
    total 0 0
  in
  Printf.printf
    "  log size:        %10d bytes jsonl, %d bytes binary (%.1fx); encoded \
     in %.2f s\n\
     %!"
    bytes_jsonl bytes_bin
    (float_of_int bytes_jsonl /. float_of_int bytes_bin)
    convert_dt;

  (* 1. JSONL through Online *)
  let jsonl_rate, jsonl_digest =
    let online = Online.create prior in
    let (), dt =
      timed (fun () ->
          List.iter (fun line -> ignore (Online.apply_line online line)) lines)
    in
    (float_of_int n_events /. dt, Beta_icm.digest (Online.model online))
  in
  Printf.printf "  jsonl:           %10.0f events/s\n%!" jsonl_rate;

  let same_digest what digest =
    if digest <> jsonl_digest then begin
      Printf.eprintf "FATAL: %s digest %s <> jsonl digest %s\n%!" what digest
        jsonl_digest;
      exit 1
    end
  in

  (* 2. binary through Online — digest must equal the jsonl path's *)
  let bin_rate =
    let online = Online.create prior in
    let reader = Binlog.Reader.open_ log in
    let (), dt =
      timed (fun () ->
          let rec go () =
            match Binlog.Reader.next reader with
            | Some record ->
              ignore (Online.apply_record online record);
              go ()
            | None -> ()
          in
          go ())
    in
    same_digest "binary" (Beta_icm.digest (Online.model online));
    float_of_int n_events /. dt
  in
  Printf.printf "  bin:             %10.0f events/s (%.1fx jsonl)\n%!" bin_rate
    (bin_rate /. jsonl_rate);

  (* 3. end to end: publish cadence included *)
  let runner_rate =
    let snapshot = Snapshot.create prior in
    let report, dt =
      timed (fun () ->
          Runner.run_binlog
            { Runner.batch = runner_batch; checkpoint_every = None }
            (Online.create prior) snapshot (Binlog.Reader.open_ log))
    in
    same_digest "runner" report.Runner.final.Snapshot.digest;
    float_of_int n_events /. dt
  in
  Printf.printf "  runner @ %d:    %10.0f events/s\n%!" runner_batch
    runner_rate;
  Printf.printf "  final digest:    %s\n%!" jsonl_digest;

  let json =
    Printf.sprintf
      "{\n\
      \  \"bench\": \"binary_ingest\",\n\
      \  \"graph\": {\"nodes\": %d, \"edges\": %d, \"generator\": \
       \"preferential_attachment\", \"seed\": 20120402},\n\
      \  \"host\": {\"cores\": %d},\n\
      \  \"quick\": %b,\n\
      \  \"events\": %d,\n\
      \  \"bytes_jsonl\": %d,\n\
      \  \"bytes_binary\": %d,\n\
      \  \"measured\": {\n\
      \    \"jsonl_events_per_sec\": %.0f,\n\
      \    \"bin_events_per_sec\": %.0f,\n\
      \    \"runner_bin_batch_%d_events_per_sec\": %.0f,\n\
      \    \"final_digest\": \"%s\",\n\
      \    \"digests_bit_identical\": true\n\
      \  }\n\
       }\n"
      (Digraph.n_nodes g) (Digraph.n_edges g) cores quick n_events bytes_jsonl
      bytes_bin jsonl_rate bin_rate runner_batch runner_rate jsonl_digest
  in
  let oc = open_out "BENCH_PR7.json" in
  output_string oc json;
  close_out oc;
  Printf.printf "wrote BENCH_PR7.json\n%!"
