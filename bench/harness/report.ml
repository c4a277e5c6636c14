(* Result files, printed tables, and the parent/change comparison.

   A result file holds one JSON object per line, one line per run, so
   repeated runs of one commit accumulate in one file. *)

module Jsonl = Iflow_engine.Jsonl
module Wire = Iflow_serve.Wire

(* ----- JSON out, with every digit of every float ----- *)

let rec emit b = function
  | Jsonl.Null -> Buffer.add_string b "null"
  | Jsonl.Bool v -> Buffer.add_string b (string_of_bool v)
  | Jsonl.Num f when not (Float.is_finite f) -> Buffer.add_string b "null"
  | Jsonl.Num f when Float.is_integer f && Float.abs f < 1e15 ->
    Buffer.add_string b (Printf.sprintf "%.0f" f)
  | Jsonl.Num f ->
    (* the shortest form that reads back as the same double *)
    let s = Printf.sprintf "%.15g" f in
    Buffer.add_string b (if float_of_string s = f then s else Printf.sprintf "%.17g" f)
  | Jsonl.Str s -> Buffer.add_string b (Wire.escape s)
  | Jsonl.List vs ->
    Buffer.add_char b '[';
    List.iteri
      (fun i v ->
        if i > 0 then Buffer.add_char b ',';
        emit b v)
      vs;
    Buffer.add_char b ']'
  | Jsonl.Obj kvs ->
    Buffer.add_char b '{';
    List.iteri
      (fun i (k, v) ->
        if i > 0 then Buffer.add_char b ',';
        Buffer.add_string b (Wire.escape k);
        Buffer.add_char b ':';
        emit b v)
      kvs;
    Buffer.add_char b '}'

let to_string v =
  let b = Buffer.create 4096 in
  emit b v;
  Buffer.contents b

let num f = Jsonl.Num f
let int i = Jsonl.Num (float_of_int i)
let str s = Jsonl.Str s
let floats a = Jsonl.List (Array.to_list (Array.map num a))

(* ----- provenance ----- *)

let git_head () =
  if not (Sys.file_exists ".git") then "unknown (not a git checkout)"
  else
    match Unix.open_process_args_in "git" [| "git"; "rev-parse"; "HEAD" |] with
    | exception Unix.Unix_error _ -> "unknown"
    | ic ->
      let head = try input_line ic with End_of_file -> "unknown" in
      ignore (Unix.close_process_in ic);
      head

let provenance ~mode ~seed ~exe ~(timing : Workload.timing) =
  [
    ("mode", str mode);
    ("seed", int seed);
    ("git", str (git_head ()));
    ( "host",
      Jsonl.Obj
        [ ("nproc", int (Domain.recommended_domain_count ())); ("ocaml", str Sys.ocaml_version) ]
    );
    ( "server",
      Jsonl.Obj
        [
          ("exe", str exe);
          ("flags", Jsonl.List (List.map str ("serve" :: "--port" :: "0" :: "--model" :: "FILE" :: Net.server_flags)));
        ] );
    ( "timing",
      Jsonl.Obj
        [
          ("warm_s", num timing.Workload.warm_s);
          ("window_s", num timing.Workload.window_s);
          ("total_s", num timing.Workload.total_s);
          ("slice_s", num Workload.slice_s);
          ("setup_runs", int Workload.setup_runs);
          ("calib_reference_ms", num Calib.reference_ms);
          ("calib_runs", int Calib.runs);
          ("calib_exponent", num Calib.exponent);
        ] );
  ]

let stat_json (s : Summary.stat) =
  Jsonl.Obj
    [
      ("unit", str s.Summary.unit_);
      ("value", num s.Summary.value);
      ("q1", num s.Summary.q1);
      ("median", num s.Summary.median);
      ("q3", num s.Summary.q3);
      ("n", int s.Summary.n);
      ("rounds", floats s.Summary.per_round);
    ]

let layer_json layers =
  Jsonl.Obj
    (List.map
       (fun (name, unit_, v) -> (name, Jsonl.Obj [ ("unit", str unit_); ("value", num v) ]))
       layers)

let workload_json ~mismatches ~e2e (st : Workload.state) =
  Jsonl.Obj
    [
      ("end_to_end", Jsonl.Obj (List.map (fun (n, s) -> (n, stat_json s)) e2e));
      ("server_layers", layer_json (Summary.server_layers (List.rev st.Workload.rounds)));
      ("mismatches", int mismatches);
      ("speed_factor", num (Summary.speed_factor st));
      ("calib_ms", floats (Array.of_list (List.rev st.Workload.speed)));
      ("setups_s", floats (Array.of_list (List.rev_map fst st.Workload.setups)));
      ("setup_factors", floats (Array.of_list (List.rev_map snd st.Workload.setups)));
      ( "slices",
        Jsonl.List
          (List.map
             (fun (s : Workload.slice) ->
               Jsonl.Obj
                 [
                   ("dur_s", num s.Workload.dur_s);
                   ("ops", int (Array.length s.Workload.lat_us));
                   ("cpu_s", num s.Workload.cpu_s);
                   ("factor", num s.Workload.factor);
                   ("p50_us", num (Summary.pct s.Workload.lat_us 0.5));
                   ("p90_us", num (Summary.pct s.Workload.lat_us 0.9));
                 ])
             (Summary.slices (List.rev st.Workload.rounds))) );
    ]

(* ----- printing ----- *)

let print_e2e oc wname e2e =
  List.iter
    (fun (metric, (s : Summary.stat)) ->
      Printf.fprintf oc "  %-12s %-20s %-8s %12.4g   q1 %10.4g  med %10.4g  q3 %10.4g  n %d\n"
        wname metric s.Summary.unit_ s.Summary.value s.Summary.q1 s.Summary.median s.Summary.q3
        s.Summary.n)
    e2e

let print_layers oc title layers =
  Printf.fprintf oc "  -- %s\n" title;
  List.iter
    (fun (name, unit_, v) -> Printf.fprintf oc "  %-34s %-8s %14.6g\n" name unit_ v)
    layers

(* ----- reading results back ----- *)

let read_runs path =
  let ic = open_in path in
  let rec go acc =
    match input_line ic with
    | line when String.trim line = "" -> go acc
    | line -> (
      match Jsonl.parse line with
      | Ok v -> go (v :: acc)
      | Error e -> failwith (Printf.sprintf "%s: not a result line (%s)" path e))
    | exception End_of_file ->
      close_in ic;
      List.rev acc
  in
  go []

let path_num json path =
  let rec go v = function
    | [] -> ( match v with Jsonl.Num f -> Some f | _ -> None)
    | k :: rest -> ( match Jsonl.member k v with Some v' -> go v' rest | None -> None)
  in
  go json path

(* the metric definitions and bounds the benchmark fixed *)
let bounds bench =
  match Jsonl.parse (In_channel.with_open_bin bench In_channel.input_all) with
  | Ok json -> (
    match Jsonl.member "end_to_end" json with
    | Some (Jsonl.List ms) ->
      List.filter_map
        (fun m ->
          match (Jsonl.member "name" m, Jsonl.member "better" m, Jsonl.member "bound" m) with
          | Some (Jsonl.Str n), Some (Jsonl.Str b), Some (Jsonl.Num bound) ->
            Some (n, b = "higher", bound)
          | _ -> None)
        ms
    | _ -> failwith (bench ^ ": no end_to_end list"))
  | Error e -> failwith (bench ^ ": " ^ e)

(* Verdicts: "improved" needs at least ten pairs, the change winning
   nine tenths of them (ties count for neither), and medians further
   apart than the parent's own quartile spread; "regressed" is a median
   worse than the bound allows; "unresolved" is a parent spread wider
   than the bound, unless every change run beats every parent run;
   otherwise "no-worse". *)
let verdict ~higher ~bound ~parent ~change =
  let better a b = if higher then a > b else a < b in
  let pairs = min (Array.length parent) (Array.length change) in
  let wins = ref 0 in
  for i = 0 to pairs - 1 do
    if better change.(i) parent.(i) then incr wins
  done;
  let mp = Summary.med parent and mc = Summary.med change in
  let q1, _, q3 = Sample.quartiles parent in
  let spread = q3 -. q1 in
  let worse_by = (if higher then mp -. mc else mc -. mp) /. Float.abs mp in
  let all_better =
    Array.for_all (fun c -> Array.for_all (fun p -> better c p) parent) change
  in
  let v =
    if pairs >= 10 && 10 * !wins >= 9 * pairs && better mc mp && Float.abs (mc -. mp) > spread
    then "improved"
    else if worse_by > bound then "regressed"
    else if spread /. Float.abs mp > bound && not all_better then "unresolved"
    else "no-worse"
  in
  (v, !wins, pairs)

let compare ~bench ~parent ~change =
  let bounds = bounds bench in
  let ps = read_runs parent and cs = read_runs change in
  if List.length ps < 10 || List.length cs < 10 then
    Printf.printf
      "note: %d parent and %d change runs; a gain needs at least ten alternating pairs\n"
      (List.length ps) (List.length cs);
  let workloads =
    List.filter
      (fun w ->
        List.exists (fun r -> path_num r [ "workloads"; w; "end_to_end"; "setup_s"; "value" ] <> None) ps)
      (List.map Workload.name Workload.all)
  in
  let regressed = ref false in
  Printf.printf "%-12s %-20s %26s %26s %7s  %s\n" "workload" "metric"
    "parent q1/median/q3" "change q1/median/q3" "won" "verdict";
  List.iter
    (fun w ->
      List.iter
        (fun (metric, higher, bound) ->
          let values runs =
            Array.of_list
              (List.filter_map
                 (fun r -> path_num r [ "workloads"; w; "end_to_end"; metric; "value" ])
                 runs)
          in
          let p = values ps and c = values cs in
          if Array.length p > 0 && Array.length c > 0 then begin
            let v, wins, pairs = verdict ~higher ~bound ~parent:p ~change:c in
            if v = "regressed" then regressed := true;
            let pq1, pm, pq3 = Sample.quartiles p and cq1, cm, cq3 = Sample.quartiles c in
            Printf.printf "%-12s %-20s %8.4g/%8.4g/%8.4g %8.4g/%8.4g/%8.4g %3d/%-3d  %s\n" w metric
              pq1 pm pq3 cq1 cm cq3 wins pairs v
          end)
        bounds)
    workloads;
  if !regressed then 2 else 0
