(* Streaming replay: the always-on learner end to end.

   A synthetic Twitter-style substrate generates attributed cascades
   which are encoded as JSONL log events and streamed through the
   ingestion subsystem: the online updater absorbs them in batches,
   each batch publishes an immutable model version that is hot-swapped
   into a live query engine (probe queries show the estimate tracking
   the evidence), and a checkpoint is written mid-stream.

   Two claims are demonstrated at the end:
   - replay determinism: the streamed posterior is bit-for-bit the
     batch [train_attributed] posterior over the same objects, and a
     second run recovered from the mid-stream checkpoint agrees too;
   - drift detection: half-way through, one community's edge
     probabilities are re-drawn much hotter; the Hoeffding detector
     flags exactly those edges within a bounded number of events. *)

module Rng = Iflow_stats.Rng
module Beta = Iflow_stats.Dist.Beta
module Gen = Iflow_graph.Gen
module Digraph = Iflow_graph.Digraph
module Icm = Iflow_core.Icm
module Beta_icm = Iflow_core.Beta_icm
module Cascade = Iflow_core.Cascade
module Generator = Iflow_core.Generator
module Engine = Iflow_engine.Engine
module Query = Iflow_engine.Query
module Event = Iflow_stream.Event
module Online = Iflow_stream.Online
module Drift = Iflow_stream.Drift
module Snapshot = Iflow_stream.Snapshot
module Runner = Iflow_stream.Runner

let () =
  let rng = Rng.create 20120402 in
  let g = Gen.preferential_attachment rng ~nodes:300 ~mean_out_degree:4 in
  let truth = Generator.retweet_ground_truth rng g in
  Printf.printf "substrate: %d nodes, %d edges\n" (Digraph.n_nodes g)
    (Digraph.n_edges g);

  (* the drifting regime: edges out of the first 10 nodes re-drawn hot *)
  let community v = v < 10 in
  let shifted_probs = Icm.probs truth in
  Digraph.iter_edges g (fun e { Digraph.src; _ } ->
      if community src then
        shifted_probs.(e) <- 0.75 +. (0.2 *. Rng.uniform rng));
  let shifted = Icm.create g shifted_probs in

  (* sources biased toward the community so its out-edges see enough
     trials for the detector's windows to fill *)
  let simulate icm count =
    List.init count (fun _ ->
        let src =
          if Rng.uniform rng < 0.3 then Rng.int rng 10
          else Rng.int rng (Digraph.n_nodes g)
        in
        Event.to_line (Event.of_attributed g (Cascade.run rng icm ~sources:[ src ])))
  in
  let stationary = simulate truth 1500 in
  let drifted = simulate shifted 1500 in
  let lines = stationary @ drifted in

  let prior = Beta_icm.uninformed g in
  let engine = Engine.create ~seed:42 (Beta_icm.expected_icm prior) in
  (* hub edges see a few hundred trials over this stream, so test in
     windows of 50 rather than the default 200 *)
  let drift = { Drift.default_config with Drift.window = 50 } in
  let online = Online.create ~drift prior in
  let snapshot = Snapshot.create prior in
  let probe =
    let src = 0 and dst = Digraph.n_nodes g - 1 in
    Query.flow ~src ~dst ()
  in
  let report =
    Runner.run ~engine
      ~on_publish:(fun v ->
        if v.Snapshot.id mod 4 = 0 then begin
          let r = Engine.query engine probe in
          Printf.printf "  version %2d (offset %5d): Pr(%s) = %.4f\n"
            v.Snapshot.id v.Snapshot.offset (Query.key probe)
            r.Engine.estimate
        end)
      { Runner.batch = 250; checkpoint_every = None }
      online snapshot
      (Runner.lines_of_list lines)
  in
  Format.printf "%a@." Runner.pp_report report;

  (* 1. replay determinism vs batch training *)
  let batch_objects =
    List.filter_map
      (fun line ->
        match Event.of_line line with
        | Ok (Event.Attributed { sources; nodes; edges }) ->
          let active_nodes = Array.make (Digraph.n_nodes g) false in
          List.iter (fun v -> active_nodes.(v) <- true) (sources @ nodes);
          let active_edges = Array.make (Digraph.n_edges g) false in
          List.iter
            (fun (s, d) ->
              match Digraph.find_edge g ~src:s ~dst:d with
              | Some e -> active_edges.(e) <- true
              | None -> assert false)
            edges;
          Some { Iflow_core.Evidence.sources; active_nodes; active_edges }
        | _ -> None)
      lines
  in
  let batch_model = Beta_icm.train_attributed g batch_objects in
  let identical =
    Beta_icm.digest batch_model
    = Beta_icm.digest report.Runner.final.Snapshot.model
  in
  Printf.printf "stream == batch train_attributed: %b\n" identical;

  (* 2. crash mid-stream, recover from the checkpoint, replay the rest *)
  let checkpoint_path = Filename.temp_file "stream_replay" ".bicm" in
  let half = 1600 in
  let crashed =
    Runner.run
      { Runner.batch = 250; checkpoint_every = Some 500 }
      (Online.create prior)
      (Snapshot.create ~checkpoint_path prior)
      (Runner.lines_of_list (List.filteri (fun i _ -> i < half) lines))
  in
  ignore crashed;
  let model, offset, version = Snapshot.recover checkpoint_path in
  let online' = Online.create model in
  let snapshot' = Snapshot.create ~id:version ~offset model in
  let report' =
    Runner.run ~skip:offset { Runner.batch = 250; checkpoint_every = None }
      online' snapshot'
      (Runner.lines_of_list lines)
  in
  Printf.printf
    "recovered at offset %d of %d, replayed the rest: digests agree: %b\n"
    offset (List.length lines)
    (Beta_icm.digest report'.Runner.final.Snapshot.model
    = Beta_icm.digest report.Runner.final.Snapshot.model);
  Sys.remove checkpoint_path;

  (* 3. drift alerts point at the shifted community *)
  let alerts = report.Runner.drift_alerts in
  let in_community =
    List.length (List.filter (fun a -> community a.Drift.src) alerts)
  in
  Printf.printf "drift alerts: %d (%d on shifted-community edges)\n"
    (List.length alerts) in_community;
  (match Online.drift online with
  | Some d -> Printf.printf "edges currently flagged: %d\n" (Drift.flagged d)
  | None -> ());
  (match alerts with
  | first :: _ ->
    Format.printf "  first: %a@." Drift.pp_alert first
  | [] -> ());

  (* engine still serving the final version *)
  let r = Engine.query engine probe in
  Printf.printf "final engine answer: Pr(%s) = %.4f (digest %s)\n"
    (Query.key probe) r.Engine.estimate (Engine.digest engine)
