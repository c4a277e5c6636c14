(* Tests for the streaming ingestion subsystem (lib/stream) and the
   satellites it leans on: batched/in-place conjugate updates, model
   digests, v2 model files, and engine hot-swap.

   The acceptance criteria pinned here:
   - replay determinism: any batch size, and any checkpoint/restore
     split, reproduces the batch [train_attributed] posterior bit for
     bit, and a streamed engine answers queries exactly like a fresh
     engine built on the same final model and seed;
   - drift: an injected rate shift is flagged within a bounded number
     of trials, with zero false alarms on the stationary prefix;
   - interleavings of evidence and graph-change events match the
     functional fold over the same sequence (property test). *)

module Rng = Iflow_stats.Rng
module Beta = Iflow_stats.Dist.Beta
module Gen = Iflow_graph.Gen
module Digraph = Iflow_graph.Digraph
module Icm = Iflow_core.Icm
module Beta_icm = Iflow_core.Beta_icm
module Cascade = Iflow_core.Cascade
module Evidence = Iflow_core.Evidence
module Engine = Iflow_engine.Engine
module Query = Iflow_engine.Query
module Lru = Iflow_engine.Lru
module Model_io = Iflow_io.Model_io
module Event = Iflow_stream.Event
module Online = Iflow_stream.Online
module Drift = Iflow_stream.Drift
module Snapshot = Iflow_stream.Snapshot
module Runner = Iflow_stream.Runner

let qcheck tests =
  List.map (QCheck_alcotest.to_alcotest ~rand:(Random.State.make [| 0 |])) tests

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)
let check_string = Alcotest.(check string)
let check_float msg a b = Alcotest.(check (float 0.0)) msg a b

let with_temp_file f =
  let path = Filename.temp_file "iflow_stream_test" ".bicm" in
  Fun.protect ~finally:(fun () -> if Sys.file_exists path then Sys.remove path)
    (fun () -> f path)

(* a small substrate with its simulated event-log lines *)
let substrate seed ~events =
  let rng = Rng.create seed in
  let g = Gen.gnm rng ~nodes:30 ~edges:120 in
  let m = Digraph.n_edges g in
  let icm = Icm.create g (Array.init m (fun _ -> 0.1 +. (0.6 *. Rng.uniform rng))) in
  let objects =
    List.init events (fun _ ->
        Cascade.run rng icm ~sources:[ Rng.int rng (Digraph.n_nodes g) ])
  in
  let lines = List.map (fun o -> Event.to_line (Event.of_attributed g o)) objects in
  (g, objects, lines)

(* ---------- Event round-trip ---------- *)

let test_event_roundtrip () =
  let events =
    [
      Event.Attributed
        { sources = [ 0; 2 ]; nodes = [ 0; 2; 5 ]; edges = [ (0, 5); (2, 5) ] };
      Event.Trace { sources = [ 1 ]; times = [ (3, 1); (4, 2) ] };
      Event.Add_nodes { count = 3 };
      Event.Add_edges { edges = [ (1, 7); (2, 7) ]; prior = Beta.v 2.5 0.5 };
      Event.Remove_edges { edges = [ (0, 5) ] };
    ]
  in
  List.iter
    (fun ev ->
      match Event.of_line (Event.to_line ev) with
      | Ok ev' -> check_bool (Event.to_line ev) true (ev = ev')
      | Error msg -> Alcotest.failf "round-trip failed: %s" msg)
    events

let test_event_rejects () =
  let bad =
    [
      "not json at all";
      {|{"sources":[0]}|};
      {|{"type":"teleport"}|};
      {|{"type":"attributed","sources":[0],"nodes":"x","edges":[]}|};
      {|{"type":"attributed","sources":[0],"nodes":[1]}|};
      {|{"type":"trace","sources":[0],"times":[[1]]}|};
      {|{"type":"add_nodes"}|};
      {|{"type":"add_edges","edges":[[0,1]],"alpha":0}|};
    ]
  in
  List.iter
    (fun line ->
      check_bool line true (Result.is_error (Event.of_line line)))
    bad

(* ---------- observe_many and the in-place accumulator ---------- *)

let tiny_model () =
  let g = Digraph.of_edges ~nodes:3 [ (0, 1); (1, 2); (0, 2) ] in
  Beta_icm.uninformed g

let test_observe_many_matches_observe () =
  let model = tiny_model () in
  let obs = [ (0, true); (1, false); (0, true); (2, false); (1, true) ] in
  let batched = Beta_icm.observe_many model obs in
  let folded =
    List.fold_left
      (fun m (edge, fired) -> Beta_icm.observe m ~edge ~fired)
      model obs
  in
  check_string "batched = folded" (Beta_icm.digest folded)
    (Beta_icm.digest batched);
  check_bool "out of range" true
    (match Beta_icm.observe_many model [ (3, true) ] with
    | exception Invalid_argument _ -> true
    | _ -> false)

let test_accum_matches_functional () =
  let model = tiny_model () in
  let obs = [ (0, true); (1, false); (2, true); (0, false) ] in
  let acc = Beta_icm.Accum.of_model model in
  List.iter (fun (edge, fired) -> Beta_icm.Accum.observe acc ~edge ~fired) obs;
  check_int "observed" 4 (Beta_icm.Accum.observed acc);
  check_string "freeze = observe_many"
    (Beta_icm.digest (Beta_icm.observe_many model obs))
    (Beta_icm.digest (Beta_icm.Accum.freeze acc));
  (* freezing must not alias the live accumulator *)
  let frozen = Beta_icm.Accum.freeze acc in
  Beta_icm.Accum.observe acc ~edge:0 ~fired:true;
  check_string "frozen unaffected"
    (Beta_icm.digest (Beta_icm.observe_many model obs))
    (Beta_icm.digest frozen)

let test_accum_decay () =
  let acc = Beta_icm.Accum.of_model (tiny_model ()) in
  Beta_icm.Accum.observe acc ~edge:0 ~fired:true;
  Beta_icm.Accum.observe acc ~edge:0 ~fired:true;
  (* (3, 1) scaled by 0.5: the mean survives, the mass halves *)
  Beta_icm.Accum.decay acc ~lambda:0.5;
  let b = Beta_icm.edge_beta (Beta_icm.Accum.freeze acc) 0 in
  check_float "alpha" 1.5 b.Beta.alpha;
  check_float "beta" 0.5 b.Beta.beta;
  check_float "mean preserved" 0.75 (Beta.mean b);
  check_bool "lambda = 1 rejected" true
    (match Beta_icm.Accum.decay acc ~lambda:1.0 with
    | exception Invalid_argument _ -> true
    | _ -> false)

let test_beta_icm_digest () =
  let model = tiny_model () in
  check_string "stable" (Beta_icm.digest model) (Beta_icm.digest model);
  check_bool "sensitive to counts" true
    (Beta_icm.digest model
    <> Beta_icm.digest (Beta_icm.observe model ~edge:0 ~fired:true));
  check_bool "sensitive to topology" true
    (Beta_icm.digest model
    <> Beta_icm.digest
         (Beta_icm.uninformed (Digraph.of_edges ~nodes:3 [ (0, 1); (1, 2) ])))

(* ---------- quarantine ---------- *)

let test_quarantine () =
  let g = Digraph.of_edges ~nodes:3 [ (0, 1); (1, 2) ] in
  let online = Online.create (Beta_icm.uninformed g) in
  let before = Beta_icm.digest (Online.model online) in
  let quarantined line =
    match Online.apply_line online line with
    | `Quarantined _ -> true
    | `Applied -> false
  in
  check_bool "parse error" true (quarantined "{{{");
  check_bool "unknown type" true (quarantined {|{"type":"teleport"}|});
  check_bool "node out of range" true
    (quarantined {|{"type":"attributed","sources":[99],"nodes":[],"edges":[]}|});
  check_bool "unknown edge" true
    (quarantined
       {|{"type":"attributed","sources":[0],"nodes":[2],"edges":[[0,2]]}|});
  check_bool "inconsistent object" true
    (quarantined
       {|{"type":"attributed","sources":[0],"nodes":[2],"edges":[[1,2]]}|});
  check_bool "inconsistent trace" true
    (quarantined {|{"type":"trace","sources":[],"times":[[2,5]]}|});
  (* an edge naming an out-of-range source is an unknown edge, not an
     exception out of the edge lookup *)
  List.iter
    (fun (line, reason) ->
      match Online.apply_line online line with
      | `Quarantined msg -> check_string "out-of-range edge reason" reason msg
      | `Applied -> Alcotest.failf "applied %s" line)
    [
      ( {|{"type":"attributed","sources":[0],"nodes":[1],"edges":[[99999,1]]}|},
        "attributed: unknown edge (99999, 1)" );
      ( {|{"type":"attributed","sources":[0],"nodes":[1],"edges":[[-1,1]]}|},
        "attributed: unknown edge (-1, 1)" );
    ];
  (* removing an unknown pair is documented as an ignored no-op *)
  check_bool "unknown removal is a no-op, not an error" true
    (not (quarantined {|{"type":"remove_edges","edges":[[2,0]]}|}));
  let s = Online.stats online in
  check_int "only the no-op removal applied" 1 s.Online.applied;
  check_int "parse errors" 2 s.Online.parse_errors;
  check_int "inconsistent" 2 s.Online.inconsistent;
  check_int "unknown refs" 4 s.Online.unknown_refs;
  check_int "quarantined total" 8 (Online.quarantined s);
  check_string "model untouched" before (Beta_icm.digest (Online.model online))

let test_trace_counting () =
  let g = Digraph.of_edges ~nodes:3 [ (0, 1); (1, 2); (0, 2) ] in
  let online = Online.create (Beta_icm.uninformed g) in
  (* 0 at t=0, 1 at t=1, 2 at t=2: edges (0,1) and (1,2) fire at the
     naive +1 step; (0,2) was attempted at t=1 and provably missed *)
  (match
     Online.apply online
       (Event.Trace { sources = [ 0 ]; times = [ (1, 1); (2, 2) ] })
   with
  | `Applied -> ()
  | `Quarantined msg -> Alcotest.failf "quarantined: %s" msg);
  let check_edge src dst alpha beta =
    let e = Option.get (Digraph.find_edge g ~src ~dst) in
    let b = Beta_icm.edge_beta (Online.model online) e in
    check_float (Printf.sprintf "alpha(%d,%d)" src dst) alpha b.Beta.alpha;
    check_float (Printf.sprintf "beta(%d,%d)" src dst) beta b.Beta.beta
  in
  check_edge 0 1 2.0 1.0;
  check_edge 1 2 2.0 1.0;
  check_edge 0 2 1.0 2.0

(* ---------- replay determinism (acceptance) ---------- *)

let test_replay_determinism () =
  let g, objects, lines = substrate 7 ~events:400 in
  let expected = Beta_icm.digest (Beta_icm.train_attributed g objects) in
  List.iter
    (fun batch ->
      let online = Online.create (Beta_icm.uninformed g) in
      let snapshot = Snapshot.create (Beta_icm.uninformed g) in
      let report =
        Runner.run { Runner.batch; checkpoint_every = None } online snapshot
          (Runner.lines_of_list lines)
      in
      check_int (Printf.sprintf "batch %d: all applied" batch) 400
        report.Runner.stats.Online.applied;
      check_string
        (Printf.sprintf "batch %d: digest matches train_attributed" batch)
        expected (Beta_icm.digest report.Runner.final.Snapshot.model))
    [ 1; 7; 64; 1000 ]

let test_checkpoint_restore_determinism () =
  let g, objects, lines = substrate 11 ~events:300 in
  let expected = Beta_icm.digest (Beta_icm.train_attributed g objects) in
  with_temp_file (fun path ->
      (* crash after a 137-line prefix, leaving a checkpoint behind *)
      let crashed =
        Runner.run
          { Runner.batch = 32; checkpoint_every = Some 50 }
          (Online.create (Beta_icm.uninformed g))
          (Snapshot.create ~checkpoint_path:path (Beta_icm.uninformed g))
          (Runner.lines_of_list (List.filteri (fun i _ -> i < 137) lines))
      in
      check_int "prefix consumed" 137 crashed.Runner.lines;
      let model, offset, version = Snapshot.recover path in
      check_int "recovered offset" 137 offset;
      check_bool "mid-stream version" true (version > 0);
      let report =
        Runner.run ~skip:offset
          { Runner.batch = 32; checkpoint_every = None }
          (Online.create model)
          (Snapshot.create ~id:version ~offset model)
          (Runner.lines_of_list lines)
      in
      check_int "resumed to the end" 300 report.Runner.lines;
      check_string "restored replay matches train_attributed" expected
        (Beta_icm.digest report.Runner.final.Snapshot.model);
      check_bool "version numbering continues" true
        (report.Runner.final.Snapshot.id > version))

(* a resume offset past the end of a JSONL source is unreachable, as it
   is for the binary log: the run fails instead of reporting nothing *)
let test_skip_past_end_fails () =
  let g, _, lines = substrate 19 ~events:5 in
  match
    Runner.run ~skip:10 Runner.default_config
      (Online.create (Beta_icm.uninformed g))
      (Snapshot.create (Beta_icm.uninformed g))
      (Runner.lines_of_list lines)
  with
  | exception Failure _ -> ()
  | r -> Alcotest.failf "skip 10 of 5 lines succeeded with %d lines" r.Runner.lines

(* the push core fed line by line publishes what the pull loop does *)
let test_feed_matches_run () =
  let g, _, lines = substrate 23 ~events:100 in
  let config = { Runner.batch = 16; checkpoint_every = None } in
  (* each run's published (id, offset) pairs, oldest first *)
  let recorded run =
    let seen = ref [] in
    let report =
      run (fun (v : Snapshot.version) ->
          seen := (v.Snapshot.id, v.Snapshot.offset) :: !seen)
    in
    (report, List.rev !seen)
  in
  let pulled, pulled_ids =
    recorded (fun on_publish ->
        Runner.run ~on_publish config
          (Online.create (Beta_icm.uninformed g))
          (Snapshot.create (Beta_icm.uninformed g))
          (Runner.lines_of_list lines))
  in
  let pushed, pushed_ids =
    recorded (fun on_publish ->
        let st =
          Runner.start ~on_publish config
            (Online.create (Beta_icm.uninformed g))
            (Snapshot.create (Beta_icm.uninformed g))
        in
        List.iter (Runner.feed st) lines;
        check_int "six full batches published" 6 (Runner.published st);
        Runner.finish st)
  in
  check_bool "same (id, offset) sequence" true (pulled_ids = pushed_ids);
  check_int "tail published at finish" 7 pushed.Runner.versions_published;
  check_int "same lines" pulled.Runner.lines pushed.Runner.lines;
  check_string "same final model"
    (Beta_icm.digest pulled.Runner.final.Snapshot.model)
    (Beta_icm.digest pushed.Runner.final.Snapshot.model)

let light_config =
  {
    Engine.default_config with
    Engine.chains = 2;
    burn_in = 100;
    thin = 2;
    round_samples = 100;
    max_samples = 200;
    rhat_target = 10.0;
    mcse_target = 1.0;
  }

let test_streamed_engine_matches_fresh () =
  let g, _, lines = substrate 13 ~events:200 in
  let prior = Beta_icm.uninformed g in
  let engine = Engine.create ~config:light_config ~seed:42 (Beta_icm.expected_icm prior) in
  let report =
    Runner.run ~engine
      { Runner.batch = 50; checkpoint_every = None }
      (Online.create prior) (Snapshot.create prior)
      (Runner.lines_of_list lines)
  in
  let final = report.Runner.final.Snapshot.model in
  let fresh = Engine.create ~config:light_config ~seed:42 (Beta_icm.expected_icm final) in
  check_string "digests agree" (Engine.digest fresh) (Engine.digest engine);
  let probe = Query.flow ~src:0 ~dst:(Digraph.n_nodes g - 1) () in
  let r_streamed = Engine.query engine probe in
  let r_fresh = Engine.query fresh probe in
  check_float "estimates agree bit for bit" r_fresh.Engine.estimate
    r_streamed.Engine.estimate

(* ---------- forgetting ---------- *)

let test_forgetting_changes_posterior_not_replay () =
  let g, _, lines = substrate 17 ~events:200 in
  let run ~forget =
    let online = Online.create ~forget (Beta_icm.uninformed g) in
    let report =
      Runner.run
        { Runner.batch = 50; checkpoint_every = None }
        online
        (Snapshot.create (Beta_icm.uninformed g))
        (Runner.lines_of_list lines)
    in
    Beta_icm.digest report.Runner.final.Snapshot.model
  in
  check_string "forget = 0 is exact replay" (run ~forget:0.0) (run ~forget:0.0);
  check_bool "forgetting discounts history" true
    (run ~forget:0.1 <> run ~forget:0.0);
  check_string "forgetting itself is deterministic" (run ~forget:0.1)
    (run ~forget:0.1)

(* ---------- drift detection (acceptance) ---------- *)

let test_drift_flags_shift_no_false_alarms () =
  let g = Digraph.of_edges ~nodes:2 [ (0, 1) ] in
  let model = Beta_icm.uninformed g in
  let config = { Drift.window = 50; delta = 1e-3; min_reference = 50.0 } in
  let d = Drift.create config model in
  (* stationary: exactly rate 1/2, six full windows *)
  let alarms = ref 0 in
  for i = 1 to 300 do
    match Drift.observe d ~edge:0 ~fired:(i mod 2 = 0) with
    | Some _ -> incr alarms
    | None -> ()
  done;
  check_int "zero false alarms on the stationary prefix" 0 !alarms;
  check_int "no flags yet" 0 (Drift.flagged d);
  (* shift to rate 1: must alert within two windows *)
  let detected_at = ref None in
  (try
     for i = 1 to 100 do
       match Drift.observe d ~edge:0 ~fired:true with
       | Some _ ->
         detected_at := Some i;
         raise Exit
       | None -> ()
     done
   with Exit -> ());
  (match !detected_at with
  | Some i -> check_bool "bounded detection delay" true (i <= 2 * config.Drift.window)
  | None -> Alcotest.fail "shift never detected");
  check_bool "edge flagged" true (Drift.is_flagged d 0);
  check_int "one flagged edge" 1 (Drift.flagged d);
  (match Drift.alerts d with
  | a :: _ ->
    check_int "alert names the edge" 0 a.Drift.edge;
    check_bool "window rate above reference" true
      (a.Drift.window_rate > a.Drift.reference_rate)
  | [] -> Alcotest.fail "alert list empty");
  (* revert to the reference rate: the next clean window clears the flag *)
  for i = 1 to 2 * config.Drift.window do
    ignore (Drift.observe d ~edge:0 ~fired:(i mod 2 = 0))
  done;
  check_int "flag cleared after a passing window" 0 (Drift.flagged d)

let test_drift_through_online () =
  (* same shift, driven through the full event pipeline *)
  let g = Digraph.of_edges ~nodes:2 [ (0, 1) ] in
  let config = { Drift.window = 40; delta = 1e-3; min_reference = 40.0 } in
  let online = Online.create ~drift:config (Beta_icm.uninformed g) in
  let event ~fired =
    Event.to_line
      (Event.Attributed
         {
           sources = [ 0 ];
           nodes = (if fired then [ 0; 1 ] else [ 0 ]);
           edges = (if fired then [ (0, 1) ] else []);
         })
  in
  let lines =
    List.init 200 (fun i -> event ~fired:(i mod 2 = 0))
    @ List.init 100 (fun _ -> event ~fired:true)
  in
  let alerts = ref [] in
  let report =
    Runner.run
      ~on_alert:(fun a -> alerts := a :: !alerts)
      { Runner.batch = 25; checkpoint_every = None }
      online
      (Snapshot.create (Beta_icm.uninformed g))
      (Runner.lines_of_list lines)
  in
  check_bool "alerts fired" true (List.length report.Runner.drift_alerts > 0);
  check_int "on_alert saw every alert"
    (List.length report.Runner.drift_alerts)
    (List.length !alerts);
  List.iter
    (fun a ->
      check_int "alert src" 0 a.Drift.src;
      check_int "alert dst" 1 a.Drift.dst;
      check_bool "alert is post-shift" true (a.Drift.at_trial > 100))
    report.Runner.drift_alerts

(* ---------- graph changes and the interleaving property ---------- *)

let test_graph_change_events () =
  let g = Digraph.of_edges ~nodes:2 [ (0, 1) ] in
  let online = Online.create (Beta_icm.uninformed g) in
  let apply ev =
    match Online.apply online ev with
    | `Applied -> ()
    | `Quarantined msg -> Alcotest.failf "quarantined: %s" msg
  in
  apply (Event.Add_nodes { count = 1 });
  apply (Event.Add_edges { edges = [ (1, 2) ]; prior = Beta.v 3.0 1.0 });
  apply
    (Event.Attributed
       { sources = [ 0 ]; nodes = [ 0; 1; 2 ]; edges = [ (0, 1); (1, 2) ] });
  apply (Event.Remove_edges { edges = [ (0, 1) ] });
  let model = Online.model online in
  check_int "3 nodes" 3 (Beta_icm.n_nodes model);
  check_int "1 surviving edge" 1 (Beta_icm.n_edges model);
  let b = Beta_icm.edge_beta model 0 in
  (* the added edge kept its prior and absorbed the traversal *)
  check_float "alpha" 4.0 b.Beta.alpha;
  check_float "beta" 1.0 b.Beta.beta;
  let s = Online.stats online in
  check_int "graph changes" 3 s.Online.graph_changes;
  check_int "applied" 4 s.Online.applied

(* Build a random interleaving of cascades and graph changes, folding a
   functional reference model alongside the emitted events. *)
let random_interleaving seed =
  let rng = Rng.create (1000 + seed) in
  let g0 = Gen.gnm rng ~nodes:6 ~edges:10 in
  let model = ref (Beta_icm.uninformed g0) in
  let events = ref [] in
  let emit e = events := e :: !events in
  for _ = 1 to 40 do
    let g = Beta_icm.graph !model in
    let n = Digraph.n_nodes g and m = Digraph.n_edges g in
    let r = Rng.uniform rng in
    if r < 0.7 then begin
      if m > 0 then begin
        let icm = Icm.create g (Array.make m 0.4) in
        let o = Cascade.run rng icm ~sources:[ Rng.int rng n ] in
        emit (Event.of_attributed g o);
        let obs = ref [] in
        for e = 0 to m - 1 do
          if o.Evidence.active_nodes.(Digraph.edge_src g e) then
            obs := (e, o.Evidence.active_edges.(e)) :: !obs
        done;
        model := Beta_icm.observe_many !model !obs
      end
    end
    else if r < 0.85 then begin
      let prior = Beta.v (0.5 +. Rng.uniform rng) 1.0 in
      emit (Event.Add_nodes { count = 1 });
      model := Beta_icm.grow !model ~new_nodes:1 ~new_edges:[];
      let src = Rng.int rng n in
      emit (Event.Add_edges { edges = [ (src, n) ]; prior });
      model := Beta_icm.grow !model ~new_nodes:0 ~new_edges:[ (src, n, prior) ]
    end
    else if m > 0 then begin
      let e = Rng.int rng m in
      let pair = (Digraph.edge_src g e, Digraph.edge_dst g e) in
      emit (Event.Remove_edges { edges = [ pair ] });
      model := Beta_icm.remove_edges !model [ pair ]
    end
  done;
  (g0, List.rev !events, !model)

let prop_interleaving_matches_functional_fold =
  QCheck.Test.make ~count:30
    ~name:"streamed interleavings match the functional fold"
    QCheck.small_nat
    (fun seed ->
      let g0, events, reference = random_interleaving seed in
      let online = Online.create (Beta_icm.uninformed g0) in
      List.iter
        (fun ev ->
          match Online.apply_line online (Event.to_line ev) with
          | `Applied -> ()
          | `Quarantined msg ->
            QCheck.Test.fail_reportf "quarantined %s: %s" (Event.to_line ev)
              msg)
        events;
      Beta_icm.digest (Online.model online) = Beta_icm.digest reference)

(* ---------- differential: Online vs the Evidence reference ---------- *)

type verdict = V_applied | V_parse | V_inconsistent | V_unknown

let verdict_name = function
  | V_applied -> "applied"
  | V_parse -> "parse"
  | V_inconsistent -> "inconsistent"
  | V_unknown -> "unknown_ref"

(* The reference fold: the batch checks of Evidence and the functional
   Beta_icm updates, one event at a time, with Online's check order
   (node range, unknown edge, consistency). *)
let reference_apply model line =
  let g = Beta_icm.graph model in
  let n = Digraph.n_nodes g and m = Digraph.n_edges g in
  let in_range v = v >= 0 && v < n in
  let graph_change f =
    match f model with
    | model' -> (V_applied, model')
    | exception Invalid_argument _ -> (V_unknown, model)
  in
  match Event.of_line line with
  | Error _ -> (V_parse, model)
  | Ok (Event.Attributed { sources; nodes; edges }) ->
    if not (List.for_all in_range sources && List.for_all in_range nodes) then
      (V_unknown, model)
    else begin
      let active_nodes = Array.make n false in
      List.iter (fun v -> active_nodes.(v) <- true) (sources @ nodes);
      let active_edges = Array.make m false in
      let known (s, d) =
        in_range s && in_range d
        &&
        match Digraph.find_edge g ~src:s ~dst:d with
        | Some e ->
          active_edges.(e) <- true;
          true
        | None -> false
      in
      if not (List.for_all known edges) then (V_unknown, model)
      else if
        not
          (Evidence.attributed_object_is_consistent g
             { Evidence.sources; active_nodes; active_edges })
      then (V_inconsistent, model)
      else
        let obs =
          List.filter_map
            (fun e ->
              if active_nodes.(Digraph.edge_src g e) then
                Some (e, active_edges.(e))
              else None)
            (List.init m Fun.id)
        in
        (V_applied, Beta_icm.observe_many model obs)
    end
  | Ok (Event.Trace { sources; times }) -> (
    match Evidence.trace_of_active ~sources ~times ~n with
    | exception Invalid_argument _ -> (V_unknown, model)
    | tr ->
      if not (Evidence.trace_is_consistent g tr) then (V_inconsistent, model)
      else
        let ts = tr.Evidence.times in
        let obs =
          List.filter_map
            (fun e ->
              let tu = ts.(Digraph.edge_src g e)
              and tv = ts.(Digraph.edge_dst g e) in
              if tu < 0 then None
              else if tv = tu + 1 then Some (e, true)
              else if tv < 0 || tv > tu + 1 then Some (e, false)
              else None)
            (List.init m Fun.id)
        in
        (V_applied, Beta_icm.observe_many model obs))
  | Ok (Event.Add_nodes { count }) ->
    graph_change (fun md -> Beta_icm.grow md ~new_nodes:count ~new_edges:[])
  | Ok (Event.Add_edges { edges; prior }) ->
    graph_change (fun md ->
        Beta_icm.grow md ~new_nodes:0
          ~new_edges:(List.map (fun (s, d) -> (s, d, prior)) edges))
  | Ok (Event.Remove_edges { edges }) ->
    graph_change (fun md -> Beta_icm.remove_edges md edges)

(* A random event against the current graph: a valid cascade (as an
   attributed object or as its trace), a graph change, or one of those
   mutated into an out-of-range id, an unknown edge, an unexplained
   active node, a non-causal or negative time, or unparseable text. *)
let random_event_line rng g =
  let n = Digraph.n_nodes g and m = Digraph.n_edges g in
  let pick l = List.nth l (Rng.int rng (List.length l)) in
  let any_node () =
    if Rng.uniform rng < 0.85 && n > 0 then Rng.int rng n
    else pick [ -1; n; n + 7; 99999 ]
  in
  let cascade () =
    let icm = Icm.create g (Array.make m 0.5) in
    Cascade.run rng icm ~sources:[ Rng.int rng n ]
  in
  let attributed () =
    match Event.of_attributed g (cascade ()) with
    | Event.Attributed { sources; nodes; edges } -> (
      match Rng.int rng 6 with
      | 0 -> Event.Attributed { sources; nodes = any_node () :: nodes; edges }
      | 1 ->
        Event.Attributed
          { sources; nodes; edges = (any_node (), any_node ()) :: edges }
      | 2 ->
        Event.Attributed
          { sources; nodes; edges = (match edges with [] -> [] | _ :: r -> r) }
      | _ -> Event.Attributed { sources; nodes; edges })
    | ev -> ev
  in
  let trace () =
    match Event.of_trace (Evidence.forget_attribution g (cascade ())) with
    | Event.Trace { sources; times } -> (
      match Rng.int rng 6 with
      | 0 -> Event.Trace { sources; times = (any_node (), Rng.int rng 4) :: times }
      | 1 -> Event.Trace { sources; times = times @ [ (Rng.int rng n, 0) ] }
      | 2 -> Event.Trace { sources; times = (Rng.int rng n, -1) :: times }
      | 3 -> Event.Trace { sources = any_node () :: sources; times }
      | _ -> Event.Trace { sources; times })
    | ev -> ev
  in
  let line =
    match Rng.int rng 10 with
    | 0 -> Event.to_line (Event.Add_nodes { count = Rng.int rng 3 })
    | 1 ->
      Event.to_line
        (Event.Add_edges
           { edges = [ (any_node (), any_node ()) ]; prior = Beta.v 1.0 2.0 })
    | 2 ->
      Event.to_line
        (Event.Remove_edges
           {
             edges =
               (if m > 0 && Rng.uniform rng < 0.8 then
                  let e = Rng.int rng m in
                  [ (Digraph.edge_src g e, Digraph.edge_dst g e) ]
                else [ (any_node (), any_node ()) ]);
           })
    | 3 | 4 | 5 -> Event.to_line (trace ())
    | _ -> Event.to_line (attributed ())
  in
  if Rng.uniform rng < 0.05 then String.sub line 0 (String.length line / 2)
  else line

let prop_online_matches_reference =
  QCheck.Test.make ~count:300
    ~name:"Online verdicts and digest match the Evidence reference fold"
    QCheck.small_nat
    (fun seed ->
      let rng = Rng.create (5000 + seed) in
      let n0 = 2 + Rng.int rng 6 in
      let g0 =
        Gen.gnm rng ~nodes:n0 ~edges:(1 + Rng.int rng (min 8 (n0 * (n0 - 1))))
      in
      let online = Online.create (Beta_icm.uninformed g0) in
      let reference = ref (Beta_icm.uninformed g0) in
      for _ = 1 to 40 do
        let line = random_event_line rng (Beta_icm.graph !reference) in
        let expected, model' = reference_apply !reference line in
        reference := model';
        let s0 = Online.stats online in
        let got =
          match Online.apply_line online line with
          | `Applied -> V_applied
          | `Quarantined _ ->
            let s1 = Online.stats online in
            if s1.Online.parse_errors > s0.Online.parse_errors then V_parse
            else if s1.Online.inconsistent > s0.Online.inconsistent then
              V_inconsistent
            else V_unknown
        in
        if got <> expected then
          QCheck.Test.fail_reportf "%s: online %s, reference %s" line
            (verdict_name got) (verdict_name expected)
      done;
      Beta_icm.digest (Online.model online) = Beta_icm.digest !reference)

(* ---------- v2 model files ---------- *)

let test_model_io_v2_roundtrip () =
  let model =
    Beta_icm.observe_many (tiny_model ()) [ (0, true); (2, false) ]
  in
  with_temp_file (fun path ->
      Model_io.save_beta_icm ~meta:[ ("offset", "123"); ("version", "7") ] path
        model;
      let loaded, meta = Model_io.load_beta_icm_meta path in
      check_string "model survives" (Beta_icm.digest model)
        (Beta_icm.digest loaded);
      check_string "digest recorded" (Beta_icm.digest model)
        (List.assoc "digest" meta);
      check_string "offset recorded" "123" (List.assoc "offset" meta);
      check_string "version recorded" "7" (List.assoc "version" meta))

let test_model_io_legacy () =
  with_temp_file (fun path ->
      let oc = open_out path in
      output_string oc "bicm 3\n0 1 2.0 1.0\n1 2 1.0 1.0\n";
      close_out oc;
      let model, meta = Model_io.load_beta_icm_meta path in
      check_int "legacy file loads" 2 (Beta_icm.n_edges model);
      check_bool "no metadata" true (meta = []);
      let b = Beta_icm.edge_beta model 0 in
      check_float "counts" 2.0 b.Beta.alpha)

let contains needle hay =
  let n = String.length needle and h = String.length hay in
  let rec go i = i + n <= h && (String.sub hay i n = needle || go (i + 1)) in
  go 0

let read_lines path =
  let ic = open_in path in
  let rec read acc =
    match input_line ic with
    | line -> read (line :: acc)
    | exception End_of_file -> List.rev acc
  in
  let lines = read [] in
  close_in ic;
  lines

let write_lines path lines =
  let oc = open_out path in
  List.iter (fun l -> output_string oc (l ^ "\n")) lines;
  close_out oc

(* tamper with the last edge row's alpha *)
let tamper_last_edge lines =
  match List.rev lines with
  | last :: rest -> (
    match String.split_on_char ' ' last with
    | src :: dst :: _alpha :: tl ->
      List.rev (String.concat " " (src :: dst :: "9" :: tl) :: rest)
    | _ -> Alcotest.fail "unexpected edge row")
  | [] -> Alcotest.fail "empty file"

let test_model_io_digest_mismatch () =
  let model = Beta_icm.observe (tiny_model ()) ~edge:0 ~fired:true in
  (* v3: physical damage is caught by the CRC footer first *)
  with_temp_file (fun path ->
      Model_io.save_beta_icm path model;
      write_lines path (tamper_last_edge (read_lines path));
      match Model_io.load_beta_icm path with
      | _ -> Alcotest.fail "tampered v3 file loaded"
      | exception Failure msg ->
        (* the tamper shortens the body, so the footer's length check
           fires; a length-preserving flip would hit the CRC check *)
        check_bool "crc named" true (contains "crc32" msg));
  (* v2 (tag rewritten, footer dropped): the semantic digest check
     still fails loudly *)
  with_temp_file (fun path ->
      Model_io.save_beta_icm path model;
      let as_v2 = function
        | l when contains "crc32" l -> None
        | l when contains "bicm-v3" l ->
          Some ("# bicm-v2" ^ String.sub l 9 (String.length l - 9))
        | l -> Some l
      in
      write_lines path
        (tamper_last_edge (List.filter_map as_v2 (read_lines path)));
      match Model_io.load_beta_icm path with
      | _ -> Alcotest.fail "tampered v2 file loaded"
      | exception Failure msg ->
        check_bool "mismatch named" true (contains "digest mismatch" msg))

let test_model_io_meta_validation () =
  let model = tiny_model () in
  with_temp_file (fun path ->
      let rejects meta =
        match Model_io.save_beta_icm ~meta path model with
        | exception Invalid_argument _ -> true
        | () -> false
      in
      check_bool "digest reserved" true (rejects [ ("digest", "x") ]);
      check_bool "no spaces" true (rejects [ ("a b", "x") ]);
      check_bool "no equals" true (rejects [ ("k", "a=b") ]);
      check_bool "non-empty" true (rejects [ ("", "x") ]))

(* ---------- engine hot-swap and invalidation ---------- *)

let five_node_model seed =
  let rng = Rng.create seed in
  let g = Gen.gnm rng ~nodes:5 ~edges:12 in
  Icm.create g (Array.init 12 (fun _ -> 0.1 +. (0.8 *. Rng.uniform rng)))

let test_engine_swap_and_invalidate () =
  let a = five_node_model 3 and b = five_node_model 4 in
  let engine = Engine.create ~config:light_config ~seed:9 a in
  let q1 = Query.flow ~src:0 ~dst:4 () in
  let q2 = Query.flow ~src:1 ~dst:3 () in
  let r1 = Engine.query engine q1 in
  let r2 = Engine.query engine q2 in
  check_bool "cached on repeat" true (Engine.query engine q1).Engine.cached;
  let evicted = Engine.swap engine ~version:1 b in
  check_int "both entries evicted" 2 evicted;
  check_string "digest tracks the new model" (Icm.digest b)
    (Engine.digest engine);
  check_bool "version tag moves with it" true
    (Engine.version engine = (1, Icm.digest b));
  check_bool "cache cold after swap" true
    (not (Engine.query engine q1).Engine.cached);
  check_bool "evictions counted" true
    ((Engine.cache_stats engine).Lru.evictions >= 2);
  (* swap back: same seed + same model digest = the original answers *)
  ignore (Engine.swap engine ~version:2 a);
  check_float "q1 reproduced bit for bit" r1.Engine.estimate
    (Engine.query engine q1).Engine.estimate;
  check_float "q2 reproduced bit for bit" r2.Engine.estimate
    (Engine.query engine q2).Engine.estimate;
  check_int "swap onto the same digest evicts nothing" 0
    (Engine.swap engine ~version:3 a);
  (* the shared cache entry now answers under the newer id *)
  let ph = Engine.phases () in
  let hit = Engine.query ~phases:ph engine q1 in
  check_bool "same-digest swap keeps the entry" true hit.Engine.cached;
  check_int "cache hit tagged with the new id" 3 ph.Engine.version

(* an answer computed on a model swapped out mid-query is returned but
   not cached: under the new model it could never be served *)
let test_superseded_answer_not_cached () =
  let a = five_node_model 3 and b = five_node_model 4 in
  let slow =
    {
      light_config with
      Engine.planner = false;
      round_samples = 100_000;
      max_samples = 400_000;
      mcse_target = 1e-12;
    }
  in
  let engine = Engine.create ~config:slow ~seed:9 a in
  let ph = Engine.phases () in
  let answer = ref None in
  let th =
    Thread.create
      (fun () ->
        answer := Some (Engine.query ~phases:ph engine (Query.flow ~src:0 ~dst:4 ())))
      ()
  in
  (* the query has captured model [a] once its phases carry a version *)
  while ph.Engine.version < 0 do
    Thread.yield ()
  done;
  ignore (Engine.swap engine ~version:1 b);
  Thread.join th;
  check_string "answered on the model it captured" (Icm.digest a)
    (Option.get !answer).Engine.model_digest;
  check_int "not cached" 0 (Engine.cache_stats engine).Lru.entries

let test_lru_clear_counts_evictions () =
  let hooked = ref 0 in
  let cache = Lru.create ~on_evict:(fun () -> incr hooked) 8 in
  List.iter (fun k -> Lru.add cache k k) [ "a"; "b"; "c" ];
  ignore (Lru.find cache "a");
  check_int "three dropped" 3 (Lru.clear cache);
  check_int "none remain" 0 (Lru.length cache);
  check_bool "gone" false (Lru.mem cache "a");
  check_int "evictions counted" 3 (Lru.stats cache).Lru.evictions;
  check_int "hook ran per entry" 3 !hooked;
  check_int "hits kept" 1 (Lru.stats cache).Lru.hits;
  check_int "empty clear drops nothing" 0 (Lru.clear cache);
  (* the recency list starts over: the cache still evicts LRU-first *)
  List.iter (fun k -> Lru.add cache k k) [ "x"; "y" ];
  check_bool "usable after clear" true (Lru.find cache "x" = Some "x")

(* ---------- snapshot versioning ---------- *)

let test_snapshot_versioning () =
  let model = tiny_model () in
  let snap = Snapshot.create model in
  check_int "seed version" 0 (Snapshot.current snap).Snapshot.id;
  let m1 = Beta_icm.observe model ~edge:0 ~fired:true in
  let v1 = Snapshot.publish snap m1 ~offset:10 in
  check_int "monotonic id" 1 v1.Snapshot.id;
  check_int "offset recorded" 10 v1.Snapshot.offset;
  let resumed = Snapshot.create ~id:7 ~offset:99 model in
  check_int "resume keeps numbering" 7 (Snapshot.current resumed).Snapshot.id;
  check_int "resume keeps offset" 99 (Snapshot.current resumed).Snapshot.offset;
  check_int "no checkpoint path = no checkpoints" 0
    (Snapshot.checkpoint snap;
     Snapshot.checkpoints_written snap)

let () =
  Alcotest.run "stream"
    [
      ( "events",
        [
          Alcotest.test_case "round-trip" `Quick test_event_roundtrip;
          Alcotest.test_case "rejects malformed" `Quick test_event_rejects;
        ] );
      ( "updates",
        [
          Alcotest.test_case "observe_many = folded observe" `Quick
            test_observe_many_matches_observe;
          Alcotest.test_case "accumulator = functional" `Quick
            test_accum_matches_functional;
          Alcotest.test_case "decay preserves the mean" `Quick test_accum_decay;
          Alcotest.test_case "digest" `Quick test_beta_icm_digest;
        ] );
      ( "online",
        [
          Alcotest.test_case "quarantine counts, never crashes" `Quick
            test_quarantine;
          Alcotest.test_case "trace counting rule" `Quick test_trace_counting;
          Alcotest.test_case "graph-change events" `Quick
            test_graph_change_events;
        ] );
      ( "replay",
        [
          Alcotest.test_case "any batch size = train_attributed" `Quick
            test_replay_determinism;
          Alcotest.test_case "checkpoint/restore split" `Quick
            test_checkpoint_restore_determinism;
          Alcotest.test_case "skip past the end fails" `Quick
            test_skip_past_end_fails;
          Alcotest.test_case "feed = run" `Quick test_feed_matches_run;
          Alcotest.test_case "streamed engine = fresh engine" `Slow
            test_streamed_engine_matches_fresh;
          Alcotest.test_case "forgetting" `Quick
            test_forgetting_changes_posterior_not_replay;
        ] );
      ( "drift",
        [
          Alcotest.test_case "flags the shift, no false alarms" `Quick
            test_drift_flags_shift_no_false_alarms;
          Alcotest.test_case "through the event pipeline" `Quick
            test_drift_through_online;
        ] );
      ( "interleaving",
        qcheck
          [
            prop_interleaving_matches_functional_fold;
            prop_online_matches_reference;
          ] );
      ( "model-io",
        [
          Alcotest.test_case "v2 round-trip with metadata" `Quick
            test_model_io_v2_roundtrip;
          Alcotest.test_case "legacy files still load" `Quick
            test_model_io_legacy;
          Alcotest.test_case "digest mismatch fails loudly" `Quick
            test_model_io_digest_mismatch;
          Alcotest.test_case "metadata validation" `Quick
            test_model_io_meta_validation;
        ] );
      ( "engine",
        [
          Alcotest.test_case "hot-swap and invalidation" `Quick
            test_engine_swap_and_invalidate;
          Alcotest.test_case "superseded answers not cached" `Quick
            test_superseded_answer_not_cached;
          Alcotest.test_case "lru clear counts evictions" `Quick
            test_lru_clear_counts_evictions;
        ] );
      ("snapshot", [ Alcotest.test_case "versioning" `Quick test_snapshot_versioning ]);
    ]
