(* Tests for the binary event log (lib/stream/binlog) and its ingest
   path (Runner.run_binlog through Online.apply_record).

   The acceptance criteria pinned here:
   - cross-codec replay: the same event sequence via JSONL and via
     binary segments yields identical Beta_icm digests at every
     published version — forgetting on, semantic quarantines included —
     and raises the same drift alerts;
   - corruption never crashes a read: exhaustive per-byte truncation
     and per-byte bit flips of a segment either fail loudly at the
     header (Corrupt) or quarantine damaged records while every
     successfully decoded event is one of the originals, in order;
   - resume (skip) and multi-segment rolling preserve the stream. *)

module Rng = Iflow_stats.Rng
module Beta = Iflow_stats.Dist.Beta
module Gen = Iflow_graph.Gen
module Digraph = Iflow_graph.Digraph
module Icm = Iflow_core.Icm
module Beta_icm = Iflow_core.Beta_icm
module Cascade = Iflow_core.Cascade
module Event = Iflow_stream.Event
module Online = Iflow_stream.Online
module Snapshot = Iflow_stream.Snapshot
module Runner = Iflow_stream.Runner
module Binlog = Iflow_stream.Binlog
module Drift = Iflow_stream.Drift

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)
let check_string = Alcotest.(check string)

let with_temp_log f =
  let path = Filename.temp_file "iflow_binlog_test" ".ibl" in
  let cleanup () =
    let rec rm k =
      let p = Binlog.segment_path path k in
      if Sys.file_exists p then begin
        Sys.remove p;
        rm (k + 1)
      end
    in
    rm 0
  in
  Fun.protect ~finally:cleanup (fun () -> f path)

let sample_events =
  [
    Event.Attributed
      { sources = [ 0; 2 ]; nodes = [ 0; 2; 5 ]; edges = [ (0, 5); (2, 5) ] };
    Event.Trace { sources = [ 1 ]; times = [ (3, 1); (4, 2) ] };
    Event.Add_nodes { count = 3 };
    Event.Add_edges { edges = [ (1, 7); (2, 7) ]; prior = Beta.v 2.5 0.5 };
    Event.Remove_edges { edges = [ (0, 5) ] };
    Event.Attributed { sources = []; nodes = []; edges = [] };
    Event.Trace { sources = [ 0 ]; times = [] };
  ]

let write_log ?segment_bytes path events =
  let w = Binlog.Writer.create ?segment_bytes path in
  List.iter (Binlog.Writer.append w) events;
  Binlog.Writer.close w;
  w

let read_all path =
  let r = Binlog.Reader.open_ path in
  let rec go acc =
    match Binlog.Reader.next r with
    | None -> List.rev acc
    | Some item -> go (item :: acc)
  in
  go []

let oks items =
  List.filter_map (function Ok ev -> Some ev | Error _ -> None) items

let errs items =
  List.filter_map (function Ok _ -> None | Error e -> Some e) items

(* ---------- round-trip ---------- *)

let test_roundtrip () =
  with_temp_log (fun path ->
      let w = write_log path sample_events in
      check_int "writer events" (List.length sample_events)
        (Binlog.Writer.events w);
      check_int "one segment" 1 (Binlog.Writer.segments w);
      check_bool "sniffs as binlog" true (Binlog.is_binlog path);
      let items = read_all path in
      check_int "no errors" 0 (List.length (errs items));
      check_bool "events round-trip" true (oks items = sample_events))

let test_writer_rejects_negative () =
  with_temp_log (fun path ->
      let w = Binlog.Writer.create path in
      Fun.protect
        ~finally:(fun () -> Binlog.Writer.close w)
        (fun () ->
          check_bool "negative id" true
            (match
               Binlog.Writer.append w
                 (Event.Attributed
                    { sources = [ -1 ]; nodes = []; edges = [] })
             with
            | exception Invalid_argument _ -> true
            | () -> false);
          check_int "nothing written" 0 (Binlog.Writer.events w)))

let test_multi_segment_and_skip () =
  with_temp_log (fun path ->
      let events =
        List.init 50 (fun i ->
            Event.Attributed
              { sources = [ i ]; nodes = [ i; i + 1 ]; edges = [ (i, i + 1) ] })
      in
      let w = write_log ~segment_bytes:256 path events in
      check_bool "rolled segments" true (Binlog.Writer.segments w > 1);
      check_bool "segment 1 exists" true
        (Sys.file_exists (Binlog.segment_path path 1));
      let items = read_all path in
      check_bool "all events across segments" true (oks items = events);
      (* resume: skip a prefix that lands mid-segment *)
      let r = Binlog.Reader.open_ path in
      check_int "skip 17" 17 (Binlog.Reader.skip r 17);
      check_int "events_seen" 17 (Binlog.Reader.events_seen r);
      let rec drain acc =
        match Binlog.Reader.next r with
        | None -> List.rev acc
        | Some (Ok ev) -> drain (ev :: acc)
        | Some (Error e) -> Alcotest.failf "error: %s" (Binlog.error_message e)
      in
      let rest = drain [] in
      check_bool "suffix after skip" true
        (rest = List.filteri (fun i _ -> i >= 17) events);
      (* skipping past the end reports how far it got *)
      let r2 = Binlog.Reader.open_ path in
      check_int "skip past end" 50 (Binlog.Reader.skip r2 1000))

let test_header_mismatch_is_corrupt () =
  with_temp_log (fun path ->
      ignore (write_log path sample_events);
      (* a second log's segment 0 renamed to look like segment 1: the
         chain index check must refuse it *)
      with_temp_log (fun other ->
          ignore (write_log other sample_events);
          let bytes = In_channel.with_open_bin other In_channel.input_all in
          Out_channel.with_open_bin
            (Binlog.segment_path path 1)
            (fun oc -> Out_channel.output_string oc bytes);
          check_bool "chain index mismatch" true
            (match read_all path with
            | exception Binlog.Corrupt _ -> true
            | _ -> false)))

(* ---------- corruption: exhaustive truncation and bit flips ---------- *)

let segment_bytes path =
  In_channel.with_open_bin path In_channel.input_all

let write_segment path s =
  Out_channel.with_open_bin path (fun oc -> Out_channel.output_string oc s)

let test_exhaustive_truncation () =
  with_temp_log (fun path ->
      ignore (write_log path sample_events);
      let full = segment_bytes path in
      let len = String.length full in
      for cut = 0 to len - 1 do
        write_segment path (String.sub full 0 cut);
        if cut < Binlog.header_size then
          check_bool
            (Printf.sprintf "cut %d: corrupt header" cut)
            true
            (match read_all path with
            | exception Binlog.Corrupt _ -> true
            | _ -> false)
        else begin
          let items = read_all path in
          let decoded = oks items in
          let errors = errs items in
          (* whatever survives is an exact prefix of the originals *)
          let rec is_prefix xs ys =
            match (xs, ys) with
            | [], _ -> true
            | x :: xs, y :: ys -> x = y && is_prefix xs ys
            | _ :: _, [] -> false
          in
          check_bool
            (Printf.sprintf "cut %d: prefix survives" cut)
            true
            (is_prefix decoded sample_events);
          (* a cut at a frame boundary is clean; anywhere else exactly
             one truncation error closes the read *)
          check_bool
            (Printf.sprintf "cut %d: at most one error" cut)
            true
            (List.length errors <= 1);
          List.iter
            (fun e ->
              check_bool
                (Printf.sprintf "cut %d: truncated/bad_varint" cut)
                true
                (match e.Binlog.reason with
                | Binlog.Truncated | Binlog.Bad_varint -> true
                | Binlog.Bad_crc | Binlog.Unknown_tag -> false))
            errors;
          if List.length errors = 0 then
            check_bool
              (Printf.sprintf "cut %d: clean cut decodes a full prefix" cut)
              true
              (cut = Binlog.header_size || decoded <> [])
        end
      done;
      write_segment path full)

let test_exhaustive_bit_flips () =
  with_temp_log (fun path ->
      ignore (write_log path sample_events);
      let full = segment_bytes path in
      let len = String.length full in
      for pos = 0 to len - 1 do
        let b = Bytes.of_string full in
        Bytes.set b pos
          (Char.chr (Char.code (Bytes.get b pos) lxor (1 lsl (pos mod 8))));
        write_segment path (Bytes.to_string b);
        if pos < Binlog.header_size then
          check_bool
            (Printf.sprintf "flip %d: corrupt header" pos)
            true
            (match read_all path with
            | exception Binlog.Corrupt _ -> true
            | _ -> false)
        else begin
          let items = read_all path in
          (* at least one record is lost, and nothing fabricated: every
             decoded event is an original, and they stay in order *)
          check_bool
            (Printf.sprintf "flip %d: at least one error" pos)
            true
            (List.length (errs items) >= 1);
          let rec is_subseq xs ys =
            match (xs, ys) with
            | [], _ -> true
            | _ :: _, [] -> false
            | x :: xs', y :: ys' ->
              if x = y then is_subseq xs' ys' else is_subseq xs ys'
          in
          check_bool
            (Printf.sprintf "flip %d: subsequence survives" pos)
            true
            (is_subseq (oks items) sample_events)
        end
      done;
      write_segment path full)

let test_payload_crc_resync () =
  (* a bad payload CRC quarantines exactly one record: the reader
     resyncs at the next frame because the length was intact *)
  with_temp_log (fun path ->
      ignore (write_log path sample_events);
      let full = segment_bytes path in
      (* flip one byte inside the *first* payload (header + length
         varint + tag is the first payload byte) *)
      let pos = Binlog.header_size + 2 in
      let b = Bytes.of_string full in
      Bytes.set b pos (Char.chr (Char.code (Bytes.get b pos) lxor 0x40));
      write_segment path (Bytes.to_string b);
      let items = read_all path in
      let errors = errs items in
      check_int "one quarantined record" 1 (List.length errors);
      List.iter
        (fun e ->
          check_bool "reason is bad_crc" true (e.Binlog.reason = Binlog.Bad_crc);
          check_string "segment named" path e.Binlog.segment;
          check_int "offset of frame start" Binlog.header_size
            e.Binlog.offset)
        errors;
      check_bool "rest of the log survives" true
        (oks items = List.tl sample_events))

(* ---------- cross-codec replay ---------- *)

(* a substrate whose event stream exercises evidence, semantic
   quarantines, and graph changes *)
let substrate seed ~events =
  let rng = Rng.create seed in
  let g = Gen.gnm rng ~nodes:30 ~edges:120 in
  let m = Digraph.n_edges g in
  let icm =
    Icm.create g (Array.init m (fun _ -> 0.1 +. (0.6 *. Rng.uniform rng)))
  in
  let evidence =
    List.init events (fun _ ->
        Event.of_attributed g
          (Cascade.run rng icm ~sources:[ Rng.int rng (Digraph.n_nodes g) ]))
  in
  (* interleave: a growth burst, evidence on the new edge, semantic
     rejects (unknown edge, inconsistent object), a removal *)
  let enriched =
    Event.Add_nodes { count = 1 }
    :: Event.Add_edges { edges = [ (0, 30) ]; prior = Beta.v 1.0 1.0 }
    :: Event.Attributed { sources = [ 0 ]; nodes = [ 0; 30 ]; edges = [ (0, 30) ] }
    :: Event.Attributed { sources = [ 0 ]; nodes = [ 0 ]; edges = [ (29, 28) ] }
    :: Event.Attributed { sources = []; nodes = [ 5 ]; edges = [] }
    :: Event.Trace { sources = [ 0 ]; times = [ (7, 3) ] }
    :: evidence
    @ [ Event.Remove_edges { edges = [ (0, 30) ] } ]
  in
  (g, evidence, enriched)

let final_digest r = Beta_icm.digest r.Runner.final.Snapshot.model

let run_jsonl ?drift ~batch ~forget model events =
  let online = Online.create ?drift ~forget model in
  let snapshot = Snapshot.create model in
  let digests = ref [] in
  let quarantines = ref [] in
  let report =
    Runner.run
      ~on_publish:(fun v ->
        digests := Beta_icm.digest v.Snapshot.model :: !digests)
      ~on_quarantine:(fun ~line ~reason ->
        quarantines := (line, reason) :: !quarantines)
      { Runner.batch; checkpoint_every = None }
      online snapshot
      (Runner.lines_of_list (List.map Event.to_line events))
  in
  (report, List.rev !digests, List.rev !quarantines)

(* the binary twin of [run_jsonl], over a log already on disk *)
let run_bin_log ?drift ?(skip = 0) ~batch ~forget model path =
  let online = Online.create ?drift ~forget model in
  let snapshot = Snapshot.create model in
  let digests = ref [] in
  let quarantines = ref [] in
  let report =
    Runner.run_binlog ~skip
      ~on_publish:(fun v ->
        digests := Beta_icm.digest v.Snapshot.model :: !digests)
      ~on_quarantine:(fun ~line ~reason ->
        quarantines := (line, reason) :: !quarantines)
      { Runner.batch; checkpoint_every = None }
      online snapshot
      (Binlog.Reader.open_ path)
  in
  (report, List.rev !digests, List.rev !quarantines)

let run_bin ?drift ~batch ~forget model events =
  with_temp_log (fun path ->
      ignore (write_log path events);
      run_bin_log ?drift ~batch ~forget model path)

let check_stats_equal (a : Online.stats) (b : Online.stats) =
  check_int "applied" a.Online.applied b.Online.applied;
  check_int "observations" a.Online.observations b.Online.observations;
  check_int "graph_changes" a.Online.graph_changes b.Online.graph_changes;
  check_int "inconsistent" a.Online.inconsistent b.Online.inconsistent;
  check_int "unknown_refs" a.Online.unknown_refs b.Online.unknown_refs

let test_cross_codec_replay () =
  let g, _, events = substrate 20120402 ~events:120 in
  let model = Beta_icm.uninformed g in
  (* forgetting on: every publish decays, so digests only match when
     the two paths publish over exactly the same event prefixes *)
  List.iter
    (fun (batch, forget, segment_bytes) ->
      let label =
        Printf.sprintf "batch %d forget %g segment_bytes %s" batch forget
          (Option.fold ~none:"default" ~some:string_of_int segment_bytes)
      in
      let rj, dj, qj = run_jsonl ~batch ~forget model events in
      let rb, db, qb =
        with_temp_log (fun path ->
            let w = write_log ?segment_bytes path events in
            if segment_bytes <> None then
              check_bool (label ^ ": log spans segments") true
                (Binlog.Writer.segments w > 1);
            run_bin_log ~batch ~forget model path)
      in
      check_bool (label ^ ": digests at every publish") true (dj = db);
      check_bool (label ^ ": final digest") true
        (final_digest rj = final_digest rb);
      check_int (label ^ ": lines") rj.Runner.lines rb.Runner.lines;
      check_bool (label ^ ": quarantine lines and reasons") true (qj = qb);
      check_stats_equal rj.Runner.stats rb.Runner.stats)
    (* the last input rolls the binary log into small segments, so
       Runner.run_binlog must cross segment boundaries mid-batch *)
    [ (32, 0.0, None); (17, 0.05, None); (17, 0.05, Some 512) ]

let test_cross_codec_drift_alerts () =
  (* a rate shift on one edge, graph changes around it (which re-anchor
     the detector): both codecs raise the same alerts at the same trials *)
  let g = Digraph.of_edges ~nodes:3 [ (0, 1); (1, 2) ] in
  let model = Beta_icm.uninformed g in
  let drift = { Drift.window = 40; delta = 1e-3; min_reference = 40.0 } in
  let cascade ~fired =
    Event.Attributed
      {
        sources = [ 0 ];
        nodes = (if fired then [ 0; 1 ] else [ 0 ]);
        edges = (if fired then [ (0, 1) ] else []);
      }
  in
  let shift =
    List.init 200 (fun i -> cascade ~fired:(i mod 2 = 0))
    @ List.init 100 (fun _ -> cascade ~fired:true)
  in
  let events =
    shift
    @ [ Event.Add_nodes { count = 1 };
        Event.Add_edges { edges = [ (2, 3) ]; prior = Beta.v 1.0 1.0 } ]
    @ shift
  in
  let rj, dj, _ = run_jsonl ~drift ~batch:25 ~forget:0.0 model events in
  let rb, db, _ = run_bin ~drift ~batch:25 ~forget:0.0 model events in
  let before_change =
    let r, _, _ = run_jsonl ~drift ~batch:25 ~forget:0.0 model shift in
    List.length r.Runner.drift_alerts
  in
  check_bool "alerts fired before the graph change" true (before_change > 0);
  check_bool "alerts fired after it" true
    (List.length rj.Runner.drift_alerts > before_change);
  check_bool "same alerts" true (rj.Runner.drift_alerts = rb.Runner.drift_alerts);
  check_bool "same digests" true (dj = db)

let test_binary_matches_jsonl_after_corruption () =
  (* binary-only damage: the record quarantines (counted as a parse
     error under the rate gate) and the rest of the stream still lands
     on the same posterior as the JSONL path minus that one event *)
  let g, events, _ = substrate 7 ~events:40 in
  let model = Beta_icm.uninformed g in
  with_temp_log (fun path ->
      ignore (write_log path events);
      let full = segment_bytes path in
      let pos = Binlog.header_size + 2 in
      let b = Bytes.of_string full in
      Bytes.set b pos (Char.chr (Char.code (Bytes.get b pos) lxor 0x10));
      write_segment path (Bytes.to_string b);
      let report, _, reasons =
        run_bin_log ~batch:16 ~forget:0.0 model path
      in
      check_int "one parse error" 1 report.Runner.stats.Online.parse_errors;
      (match reasons with
      | [ (line, reason) ] ->
        check_int "quarantine line is the damaged record" 1 line;
        let prefix = Printf.sprintf "%s@%d: bad_crc" path Binlog.header_size in
        check_bool "reason names segment, offset, bad_crc" true
          (String.length reason >= String.length prefix
          && String.sub reason 0 (String.length prefix) = prefix)
      | other ->
        Alcotest.failf "expected one quarantine, got %d" (List.length other));
      (* reference: the same stream without its first event *)
      let rj, _, _ = run_jsonl ~batch:16 ~forget:0.0 model (List.tl events) in
      check_string "posterior matches JSONL minus the damaged event"
        (final_digest rj) (final_digest report))

let test_checkpoint_resume_binary () =
  (* crash after a prefix, recover, resume from the binary log with
     skip: the final digest matches an uninterrupted sequential run *)
  let g, _, events = substrate 11 ~events:100 in
  let model = Beta_icm.uninformed g in
  let expected =
    let rj, _, _ = run_jsonl ~batch:32 ~forget:0.0 model events in
    final_digest rj
  in
  with_temp_log (fun log ->
      ignore (write_log log events);
      let ckpt = Filename.temp_file "iflow_binlog_test" ".ckpt" in
      Fun.protect
        ~finally:(fun () -> if Sys.file_exists ckpt then Sys.remove ckpt)
        (fun () ->
          let total = List.length events in
          let prefix = 57 in
          let online = Online.create model in
          let reader = Binlog.Reader.open_ log in
          (* phase 1: ingest a prefix record by record, then checkpoint
             — simulating a crash mid-log *)
          let snapshot = Snapshot.create ~checkpoint_path:ckpt model in
          for _ = 1 to prefix do
            match Binlog.Reader.next reader with
            | Some record -> ignore (Online.apply_record online record)
            | None -> Alcotest.fail "log ended inside the prefix"
          done;
          check_int "prefix consumed" prefix (Binlog.Reader.events_seen reader);
          ignore (Snapshot.publish snapshot (Online.model online) ~offset:prefix);
          Snapshot.checkpoint snapshot;
          (* phase 2: recover and resume *)
          let model2, offset, _version = Snapshot.recover ckpt in
          check_int "recovered offset" prefix offset;
          let report, _, _ =
            run_bin_log ~skip:offset ~batch:32 ~forget:0.0 model2 log
          in
          check_int "rest consumed" total report.Runner.lines;
          check_string "resumed digest matches uninterrupted replay" expected
            (final_digest report)))

let test_unknown_tag_quarantines () =
  (* a record with an unrecognised tag byte but a valid CRC: future
     event kinds must quarantine, not kill the reader *)
  with_temp_log (fun path ->
      ignore (write_log path [ List.hd sample_events ]);
      let full = segment_bytes path in
      let b = Buffer.create 64 in
      Buffer.add_string b full;
      (* hand-build a frame: payload = [tag 9], CRC over it *)
      let payload = "\009" in
      Buffer.add_char b '\001';
      Buffer.add_string b payload;
      let crc = Iflow_fault.Crc32.string payload in
      Buffer.add_char b (Char.chr (crc land 0xff));
      Buffer.add_char b (Char.chr ((crc lsr 8) land 0xff));
      Buffer.add_char b (Char.chr ((crc lsr 16) land 0xff));
      Buffer.add_char b (Char.chr ((crc lsr 24) land 0xff));
      write_segment path (Buffer.contents b);
      let items = read_all path in
      check_int "two records" 2 (List.length items);
      match items with
      | [ Ok _; Error e ] ->
        check_bool "unknown tag" true (e.Binlog.reason = Binlog.Unknown_tag)
      | _ -> Alcotest.fail "expected [Ok; Error unknown_tag]")

let () =
  Alcotest.run "binlog"
    [
      ( "codec",
        [
          Alcotest.test_case "round-trip" `Quick test_roundtrip;
          Alcotest.test_case "writer rejects negatives" `Quick
            test_writer_rejects_negative;
          Alcotest.test_case "multi-segment + skip" `Quick
            test_multi_segment_and_skip;
          Alcotest.test_case "chain index mismatch" `Quick
            test_header_mismatch_is_corrupt;
        ] );
      ( "corruption",
        [
          Alcotest.test_case "exhaustive truncation" `Quick
            test_exhaustive_truncation;
          Alcotest.test_case "exhaustive bit flips" `Quick
            test_exhaustive_bit_flips;
          Alcotest.test_case "payload CRC resync" `Quick
            test_payload_crc_resync;
          Alcotest.test_case "unknown tag quarantines" `Quick
            test_unknown_tag_quarantines;
        ] );
      ( "cross-codec",
        [
          Alcotest.test_case "replay digests identical" `Quick
            test_cross_codec_replay;
          Alcotest.test_case "binary matches jsonl after corruption" `Quick
            test_binary_matches_jsonl_after_corruption;
          Alcotest.test_case "checkpoint resume from binary" `Quick
            test_checkpoint_resume_binary;
          Alcotest.test_case "drift alerts identical" `Quick
            test_cross_codec_drift_alerts;
        ] );
    ]
