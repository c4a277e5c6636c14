(* The crash-recovery property test, in its own executable because
   Unix.fork is forbidden once any domain has been spawned:

     SIGKILL an ingest child at a random instant; recovering from the
     newest valid checkpoint in the rotated set and replaying the rest
     of the event log must reach the exact final digest of an
     uninterrupted run. *)

module Rng = Iflow_stats.Rng
module Gen = Iflow_graph.Gen
module Digraph = Iflow_graph.Digraph
module Icm = Iflow_core.Icm
module Beta_icm = Iflow_core.Beta_icm
module Cascade = Iflow_core.Cascade
module Event = Iflow_stream.Event
module Online = Iflow_stream.Online
module Snapshot = Iflow_stream.Snapshot
module Runner = Iflow_stream.Runner
module Retry = Iflow_fault.Retry
module Durable = Iflow_fault.Durable

let check_bool = Alcotest.(check bool)
let check_string = Alcotest.(check string)

let with_temp_file f =
  let path = Filename.temp_file "iflow_crash_test" ".bicm" in
  (* temp_file pre-creates an empty file; the checkpoint path must not
     exist until the child actually writes one *)
  Sys.remove path;
  let cleanup () =
    List.iter
      (fun p -> if Sys.file_exists p then Sys.remove p)
      (Durable.tmp_of path :: List.init 8 (Durable.rotated path))
  in
  Fun.protect ~finally:cleanup (fun () -> f path)

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

let wait_for pid =
  let rec go () =
    match Unix.waitpid [] pid with
    | _ -> ()
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> go ()
  in
  go ()

let test_sigkill_recovery () =
  let g, lines = substrate 31 ~events:400 in
  let prior = Beta_icm.uninformed g in
  let config = { Runner.batch = 16; checkpoint_every = Some 20 } in
  let reference =
    Beta_icm.digest
      (Runner.run config (Online.create prior) (Snapshot.create prior)
         (Runner.lines_of_list lines))
        .Runner.final.Snapshot.model
  in
  List.iteri
    (fun trial delay ->
      with_temp_file (fun path ->
          flush stdout;
          flush stderr;
          match Unix.fork () with
          | 0 ->
            (* the child ingests with rotated checkpoints, throttled so
               the parent's kill lands mid-run *)
            (try
               ignore
                 (Runner.run ~on_publish:(fun _ -> Unix.sleepf 0.002) config
                    (Online.create prior)
                    (Snapshot.create ~checkpoint_path:path ~keep:2
                       ~retry:Retry.no_delay prior)
                    (Runner.lines_of_list lines));
               Unix._exit 0
             with _ -> Unix._exit 1)
          | pid ->
            Unix.sleepf delay;
            (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
            wait_for pid;
            let model, offset, version =
              match
                Snapshot.recover ~on_skip:(fun ~path:_ ~reason:_ -> ()) path
              with
              | r -> r
              | exception (Sys_error _ | Failure _) ->
                (* killed before the first complete checkpoint (no file,
                   or only a torn one): resume from zero — the property
                   still has to hold *)
                (prior, 0, 0)
            in
            check_bool
              (Printf.sprintf "trial %d: offset within the log" trial)
              true
              (offset >= 0 && offset <= List.length lines);
            let resumed =
              Runner.run ~skip:offset config (Online.create model)
                (Snapshot.create ~id:version ~offset model)
                (Runner.lines_of_list lines)
            in
            check_string
              (Printf.sprintf
                 "trial %d: killed after %.0f ms at offset %d, resume is \
                  bit-identical"
                 trial (delay *. 1000.0) offset)
              reference (Beta_icm.digest resumed.Runner.final.Snapshot.model)))
    [ 0.0; 0.01; 0.04; 0.12 ]

let () =
  Alcotest.run "crash"
    [
      ( "crash-recovery",
        [ Alcotest.test_case "SIGKILL + resume" `Quick test_sigkill_recovery ] );
    ]
