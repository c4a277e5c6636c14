(* Round-trip and error-handling tests for iflow_io. *)
module Digraph = Iflow_graph.Digraph
module Gen = Iflow_graph.Gen
module Rng = Iflow_stats.Rng
module Beta = Iflow_stats.Dist.Beta
module Icm = Iflow_core.Icm
module Beta_icm = Iflow_core.Beta_icm
module Generator = Iflow_core.Generator
module Model_io = Iflow_io.Model_io
module Tweet = Iflow_twitter.Tweet

let temp_file suffix =
  Filename.temp_file "iflow_test" suffix

let with_temp suffix f =
  let path = temp_file suffix in
  Fun.protect ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
    (fun () -> f path)

let test_beta_icm_roundtrip () =
  let rng = Rng.create 301 in
  let model = Generator.default_beta_icm rng ~nodes:20 ~edges:60 in
  with_temp ".bicm" (fun path ->
      Model_io.save_beta_icm path model;
      let loaded = Model_io.load_beta_icm path in
      Alcotest.(check int) "nodes" 20 (Beta_icm.n_nodes loaded);
      Alcotest.(check int) "edges" 60 (Beta_icm.n_edges loaded);
      let g = Beta_icm.graph model and g' = Beta_icm.graph loaded in
      for e = 0 to 59 do
        Alcotest.(check int) "src" (Digraph.edge_src g e) (Digraph.edge_src g' e);
        Alcotest.(check int) "dst" (Digraph.edge_dst g e) (Digraph.edge_dst g' e);
        let b = Beta_icm.edge_beta model e and b' = Beta_icm.edge_beta loaded e in
        Alcotest.(check (float 1e-12)) "alpha" b.Beta.alpha b'.Beta.alpha;
        Alcotest.(check (float 1e-12)) "beta" b.Beta.beta b'.Beta.beta
      done)

let test_icm_roundtrip () =
  let rng = Rng.create 302 in
  let g = Gen.gnm rng ~nodes:10 ~edges:25 in
  let icm = Icm.create g (Array.init 25 (fun _ -> Rng.uniform rng)) in
  with_temp ".icm" (fun path ->
      Model_io.save_icm path icm;
      let loaded = Model_io.load_icm path in
      for e = 0 to 24 do
        Alcotest.(check (float 1e-12)) "prob" (Icm.prob icm e)
          (Icm.prob loaded e)
      done)

let test_tweets_roundtrip () =
  let tweets =
    [
      Tweet.make ~id:1 ~author:"alice" ~time:3 ~text:"hello #x http://t.co/a";
      Tweet.make ~id:2 ~author:"bob" ~time:5 ~text:"RT @alice: hello #x";
    ]
  in
  with_temp ".tsv" (fun path ->
      Model_io.save_tweets path tweets;
      let loaded = Model_io.load_tweets path in
      Alcotest.(check int) "count" 2 (List.length loaded);
      List.iter2
        (fun (a : Tweet.t) (b : Tweet.t) ->
          Alcotest.(check int) "id" a.Tweet.id b.Tweet.id;
          Alcotest.(check string) "author" a.Tweet.author b.Tweet.author;
          Alcotest.(check int) "time" a.Tweet.time b.Tweet.time;
          Alcotest.(check string) "text" a.Tweet.text b.Tweet.text)
        tweets loaded)

let test_tweets_sanitised () =
  (* tabs/newlines in text must not break the TSV format *)
  let dirty = [ Tweet.make ~id:1 ~author:"a" ~time:0 ~text:"has\ttab\nand nl" ] in
  with_temp ".tsv" (fun path ->
      Model_io.save_tweets path dirty;
      match Model_io.load_tweets path with
      | [ t ] -> Alcotest.(check string) "sanitised" "has tab and nl" t.Tweet.text
      | other -> Alcotest.failf "expected 1 tweet, got %d" (List.length other))

let test_names_roundtrip () =
  with_temp ".names" (fun path ->
      Model_io.save_names path [| "alice"; "bob"; "carol" |];
      Alcotest.(check (array string)) "names" [| "alice"; "bob"; "carol" |]
        (Model_io.load_names path))

let expect_failure what f =
  match f () with
  | _ -> Alcotest.failf "%s: expected Failure" what
  | exception Failure _ -> ()

let test_malformed_inputs () =
  with_temp ".bicm" (fun path ->
      let write s =
        let oc = open_out path in
        output_string oc s;
        close_out oc
      in
      write "wrong header\n";
      expect_failure "bad magic" (fun () -> Model_io.load_beta_icm path);
      write "bicm 3\n0 1 notanumber 2\n";
      expect_failure "bad payload" (fun () -> Model_io.load_beta_icm path);
      write "bicm 3\n0 1 2.0 -1.0\n";
      expect_failure "negative beta" (fun () -> Model_io.load_beta_icm path);
      write "bicm 2\n0 5 1 1\n";
      (* out-of-range endpoint: surfaced by graph construction *)
      (match Model_io.load_beta_icm path with
      | _ -> Alcotest.fail "expected failure"
      | exception (Failure _ | Invalid_argument _) -> ());
      write "icm 2\n0 1 1.5\n";
      expect_failure "probability out of range" (fun () ->
          Model_io.load_icm path))

(* ---------- digest values ---------- *)

(* Digests written down from the build before digests resumed from the
   graph's structure fingerprint. They are a file format (the .icm /
   .bicm header) and seed every sampled answer, so they must not move. *)
let test_digest_pins () =
  let model = Generator.default_beta_icm (Rng.create 2301) ~nodes:40 ~edges:160 in
  Alcotest.(check string) "Beta_icm.digest" "034fc9aaa6a3c8a8" (Beta_icm.digest model);
  Alcotest.(check string) "Icm.digest" "2009e43ecd7fedd8"
    (Icm.digest (Beta_icm.expected_icm model));
  let g = Gen.gnm (Rng.create 2302) ~nodes:50 ~edges:200 in
  let rng = Rng.create 2303 in
  let probs =
    Array.init 200 (fun e ->
        if e = 0 then -0.0 else if e = 1 then 1.0 else Rng.uniform rng)
  in
  Alcotest.(check string) "Icm.digest with -0.0" "dad95fcbf0016c9b"
    (Icm.digest (Icm.create g probs));
  Alcotest.(check string) "Icm.digest, no edges" "a879e912bda60d66"
    (Icm.digest (Icm.const (Digraph.of_edges ~nodes:3 []) 0.5));
  Alcotest.(check string) "Beta_icm.digest, empty graph" "88201fb960ff6465"
    (Beta_icm.digest (Beta_icm.uninformed (Digraph.of_edges ~nodes:0 [])))

let read_file path = In_channel.with_open_bin path In_channel.input_all

(* fixtures/fixture.{bicm,icm} were saved by that same earlier build:
   they load (the header digest is recomputed and checked), and saving
   the loaded model writes the same bytes again *)
let test_fixtures_load () =
  let model, meta = Model_io.load_beta_icm_meta "fixtures/fixture.bicm" in
  Alcotest.(check (option string)) "bicm header digest" (Some "02d7c3b26c09a3b4")
    (List.assoc_opt "digest" meta);
  Alcotest.(check string) "bicm digest" "02d7c3b26c09a3b4" (Beta_icm.digest model);
  with_temp ".bicm" (fun path ->
      Model_io.save_beta_icm
        ~meta:(List.filter (fun (k, _) -> k <> "digest") meta)
        path model;
      Alcotest.(check string) "bicm bytes" (read_file "fixtures/fixture.bicm")
        (read_file path));
  let icm = Model_io.load_icm "fixtures/fixture.icm" in
  Alcotest.(check string) "icm digest" "035456f9e8193137" (Icm.digest icm);
  Alcotest.(check string) "icm = expected bicm" (Icm.digest icm)
    (Icm.digest (Beta_icm.expected_icm model));
  with_temp ".icm" (fun path ->
      Model_io.save_icm path icm;
      Alcotest.(check string) "icm bytes" (read_file "fixtures/fixture.icm")
        (read_file path))

let () =
  Alcotest.run "iflow_io"
    [
      ( "roundtrip",
        [
          Alcotest.test_case "beta icm" `Quick test_beta_icm_roundtrip;
          Alcotest.test_case "icm" `Quick test_icm_roundtrip;
          Alcotest.test_case "tweets" `Quick test_tweets_roundtrip;
          Alcotest.test_case "tweet sanitising" `Quick test_tweets_sanitised;
          Alcotest.test_case "names" `Quick test_names_roundtrip;
        ] );
      ( "errors",
        [ Alcotest.test_case "malformed inputs" `Quick test_malformed_inputs ] );
      ( "digests",
        [
          Alcotest.test_case "pinned values" `Quick test_digest_pins;
          Alcotest.test_case "earlier build's files load" `Quick test_fixtures_load;
        ] );
    ]
