(* One benchmark for the served system: four workloads against a real
   `infoflow serve` child process, six end-to-end metrics scaled to the
   machine's measured speed, the server's own per-layer read-outs, and a
   traced in-process replay of the same inputs for the per-layer
   numbers. See README.md. *)

module Jsonl = Iflow_engine.Jsonl

let usage =
  {|usage:
  harness.exe --workload NAME --seed N --seconds S --trace 0|1 [options]
      one workload (serve_hot, query_exact, query_mh, ingest_live); the
      last line of standard output is the JSON result
  harness.exe run [--seconds S] [--smoke] [options]
      every workload, rounds interleaved round-robin, then the traced run
  harness.exe compare PARENT.json CHANGE.json
      per workload and metric: medians, quartiles, pairs won, and a
      verdict against the bounds in ./BENCHMARK.json
options:
  --seed N          input seed (default 20120402)
  --out FILE        append the full result (provenance, raw rounds) to FILE
  --server EXE      server binary (default _build/default/bin/infoflow.exe)|}

type opts = {
  mutable cmd : string;
  mutable workload : string option;
  mutable seed : int;
  mutable seconds : float option;
  mutable trace : bool;
  mutable smoke : bool;
  mutable out : string option;
  mutable exe : string;
  mutable files : string list;
}

let die fmt =
  Printf.ksprintf
    (fun msg ->
      prerr_endline ("harness: " ^ msg);
      prerr_endline usage;
      exit 2)
    fmt

let parse argv =
  let o =
    {
      cmd = "workload";
      workload = None;
      seed = Inputs.default_seed;
      seconds = None;
      trace = false;
      smoke = false;
      out = None;
      exe = "_build/default/bin/infoflow.exe";
      files = [];
    }
  in
  let int_arg flag v = match int_of_string_opt v with Some i -> i | None -> die "%s: not an integer: %s" flag v in
  let rec go = function
    | [] -> ()
    | ("run" | "compare") as c :: rest when o.cmd = "workload" && o.workload = None ->
      o.cmd <- c;
      go rest
    | "--workload" :: v :: rest ->
      o.workload <- Some v;
      go rest
    | "--seed" :: v :: rest ->
      o.seed <- int_arg "--seed" v;
      go rest
    | "--seconds" :: v :: rest ->
      (match float_of_string_opt v with
      | Some s when s > 0.0 -> o.seconds <- Some s
      | _ -> die "--seconds: not a positive number: %s" v);
      go rest
    | "--trace" :: v :: rest ->
      o.trace <- int_arg "--trace" v <> 0;
      go rest
    | "--smoke" :: rest ->
      o.smoke <- true;
      go rest
    | "--out" :: v :: rest ->
      o.out <- Some v;
      go rest
    | "--server" :: v :: rest ->
      o.exe <- v;
      go rest
    | ("-h" | "--help") :: _ ->
      print_endline usage;
      exit 0
    | f :: rest when o.cmd = "compare" && String.length f > 0 && f.[0] <> '-' ->
      o.files <- o.files @ [ f ];
      go rest
    | a :: _ -> die "unexpected argument %s" a
  in
  go (List.tl (Array.to_list argv));
  o

(* Scratch space for model files and server logs, inside the working
   directory; removed at exit unless the run failed. *)
let keep_workdir = ref false

let make_workdir () =
  let root = ".harness" in
  (try Unix.mkdir root 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
  let dir = Filename.concat root (string_of_int (Unix.getpid ())) in
  Unix.mkdir dir 0o755;
  at_exit (fun () ->
      if !keep_workdir then Printf.eprintf "harness: server logs kept in %s\n%!" dir
      else
        try
          Array.iter (fun f -> Sys.remove (Filename.concat dir f)) (Sys.readdir dir);
          Unix.rmdir dir
        with Sys_error _ | Unix.Unix_error _ -> ());
  dir

let append_line path json =
  let oc = open_out_gen [ Open_append; Open_creat ] 0o644 path in
  output_string oc (Report.to_string json);
  output_char oc '\n';
  close_out oc

let traced_run o ms ~label =
  let layers = Replay.run ~seed:o.seed (Replay.inputs ~seed:o.seed ms) in
  let path = Filename.concat ".harness" (Printf.sprintf "trace-%s-%d.json" label o.seed) in
  Spans.write path;
  Printf.eprintf "harness: trace written to %s\n%!" path;
  layers

let check_server o =
  if not (Sys.file_exists o.exe) then
    die "server binary %s not found (build it with `dune build bin/infoflow.exe`)" o.exe

(* Rounds of every workload in turn, until each has measured
   [total_s]; a workload whose last round measured nothing (its server
   failed) stops there. *)
let run_rounds states (timing : Workload.timing) o ~workdir =
  let pending (st : Workload.state) =
    Workload.measured st < timing.total_s -. 1e-6
    && match st.Workload.rounds with r :: _ -> r.Workload.slices <> [] | [] -> true
  in
  let rec go i =
    match List.filter pending states with
    | [] -> ()
    | todo ->
      List.iter
        (fun st ->
          Printf.eprintf "harness: round %d %s\n%!" i (Workload.name st.Workload.kind);
          Workload.round st timing ~exe:o.exe ~workdir)
        todo;
      go (i + 1)
  in
  go 1

(* Verifies every state's gate, prints every metric of every workload,
   appends the full result to [--out]; returns each state with its
   mismatch count and end-to-end metrics, and the run's totals. *)
let finish o ~mode ~timing states traced =
  let t = Unix.gettimeofday () in
  let mismatches = List.map (fun st -> (st, Gate.verify st.Workload.gate)) states in
  Printf.eprintf "harness: correctness gate checked in %.1f s\n%!" (Unix.gettimeofday () -. t);
  let attempted = ref 0 and failed = ref 0 in
  List.iter
    (fun ((st : Workload.state), m) ->
      attempted := !attempted + Atomic.get st.Workload.attempted;
      failed := !failed + Atomic.get st.Workload.failed + m)
    mismatches;
  let results =
    List.map
      (fun (st : Workload.state) ->
        let m = List.assq st mismatches in
        let rs = List.rev st.Workload.rounds in
        let name = Workload.name st.Workload.kind in
        let e2e = Summary.end_to_end ~mismatches:m st in
        Printf.printf "%s (%d rounds, %d mismatches, speed factor %.4g)\n" name (List.length rs) m
          (Summary.speed_factor st);
        Report.print_e2e stdout name e2e;
        Report.print_layers stdout (name ^ ": server read-outs") (Summary.server_layers rs);
        (st, m, e2e))
      states
  in
  if traced <> [] then Report.print_layers stdout "traced replay" traced;
  let correct = !failed = 0 in
  Printf.printf "correct: %b (%d attempted, %d failed)\n%!" correct !attempted !failed;
  Option.iter
    (fun path ->
      append_line path
        (Jsonl.Obj
           (Report.provenance ~mode ~seed:o.seed ~exe:o.exe ~timing
           @ [
               ("correct", Jsonl.Bool correct);
               ("attempted", Report.int !attempted);
               ("failed", Report.int !failed);
               ( "workloads",
                 Jsonl.Obj
                   (List.map
                      (fun ((st : Workload.state), m, e2e) ->
                        (Workload.name st.Workload.kind, Report.workload_json ~mismatches:m ~e2e st))
                      results) );
               ("traced", Report.layer_json traced);
             ])))
    o.out;
  if not correct then keep_workdir := true;
  (results, correct, !attempted, !failed)

(* One workload, as BENCHMARK.json's command runs it: [--seconds] of
   measurement, in one round (ingest_live: as many as its evidence
   needs); the last line of stdout holds the end-to-end metrics, or
   with [--trace 1] the per-layer ones. *)
let one_workload o =
  let kind =
    match Option.bind o.workload Workload.of_name with
    | Some k -> k
    | None -> die "--workload must be one of serve_hot, query_exact, query_mh, ingest_live"
  in
  check_server o;
  let total_s = Option.value o.seconds ~default:20.0 in
  let timing = { Workload.warm_s = 1.0; window_s = total_s; total_s } in
  let workdir = make_workdir () in
  let ms = Workload.models ~seed:o.seed ~workdir in
  let t = Unix.gettimeofday () in
  let st = Workload.state ms kind in
  Printf.eprintf "harness: inputs built in %.1f s\n%!" (Unix.gettimeofday () -. t);
  run_rounds [ st ] timing o ~workdir;
  let traced = if o.trace then traced_run o ms ~label:(Workload.name kind) else [] in
  let results, correct, attempted, failed = finish o ~mode:"workload" ~timing [ st ] traced in
  let rs = List.rev st.Workload.rounds in
  let metric name unit_ v =
    (name, Jsonl.Obj [ ("value", Report.num v); ("unit", Report.str unit_) ])
  in
  let metrics =
    if o.trace then
      List.map
        (fun (n, u, v) -> metric n u v)
        (Summary.server_layers rs @ traced
        @ [ ("harness.speed_factor", "ratio", Summary.speed_factor st) ])
    else
      let _, _, e2e = List.hd results in
      List.map (fun (n, (s : Summary.stat)) -> metric n s.Summary.unit_ s.Summary.value) e2e
  in
  print_endline
    (Report.to_string
       (Jsonl.Obj
          [
            ("correct", Jsonl.Bool correct);
            ("attempted", Report.int attempted);
            ("failed", Report.int failed);
            ("metrics", Jsonl.Obj metrics);
          ]));
  exit (if correct then 0 else 1)

(* Every workload, rounds interleaved round-robin, then the traced run. *)
let run_all o =
  check_server o;
  let timing =
    if o.smoke then { Workload.warm_s = 0.5; window_s = 1.0; total_s = 1.0 }
    else
      let window_s = Option.value o.seconds ~default:6.0 in
      { Workload.warm_s = 2.0; window_s; total_s = 5.0 *. window_s }
  in
  let workdir = make_workdir () in
  let ms = Workload.models ~seed:o.seed ~workdir in
  let states = List.map (Workload.state ms) Workload.all in
  run_rounds states timing o ~workdir;
  let traced = traced_run o ms ~label:(if o.smoke then "smoke" else "run") in
  let mode = if o.smoke then "smoke" else "run" in
  let _, correct, _, _ = finish o ~mode ~timing states traced in
  exit (if correct then 0 else 1)

let () =
  (* exit through at_exit, which stops every server still running *)
  List.iter
    (fun s -> Sys.set_signal s (Sys.Signal_handle (fun _ -> exit 3)))
    [ Sys.sigterm; Sys.sigint ];
  let o = parse Sys.argv in
  match o.cmd with
  | "run" -> run_all o
  | "compare" -> (
    match o.files with
    | [ parent; change ] -> exit (Report.compare ~bench:"BENCHMARK.json" ~parent ~change)
    | _ -> die "compare takes two result files")
  | _ -> one_workload o
