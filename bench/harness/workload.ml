(* The four workloads and their rounds against a live `infoflow serve`.

   A workload first times a few dedicated set-ups (spawn a server,
   answer one query, stop it). Each round then spawns a fresh server on
   the workload's model file, so it starts from an empty cache and
   version 0, warms up without measuring, and measures slices of
   [slice_s] until its window is full. Before and after every set-up
   and every slice the clients are paused and the harness reads the
   machine's speed ([Calib.sample]); the slice or set-up keeps the
   slowdown those two readings give. Load comes from this process alone,
   from at most two client threads on at most two connections at a
   time.

   Every workload is a closed loop: a client sends its next request
   only after the previous one was answered, so a slow moment of the
   shared machine lowers the load instead of queueing it. The query
   workloads run two such clients. ingest_live runs one, which posts one
   version's worth of evidence (256 events) and then asks queries until
   an answer carries the new version. *)

module Clock = Iflow_obs.Clock
module Buf = Sample.Buf

type kind = Serve_hot | Query_exact | Query_mh | Ingest_live

let all = [ Serve_hot; Query_exact; Query_mh; Ingest_live ]

let name = function
  | Serve_hot -> "serve_hot"
  | Query_exact -> "query_exact"
  | Query_mh -> "query_mh"
  | Ingest_live -> "ingest_live"

let of_name s = List.find_opt (fun k -> name k = s) all

type timing = {
  warm_s : float;
  window_s : float;  (** the longest a round measures *)
  total_s : float;  (** rounds run until their windows add up to this *)
}

let gate_every = 64
let setup_runs = 15
let slice_s = 0.5

(* query_exact and query_mh cycle over this many distinct pairs, each
   client over its own half: a pair comes back only after about 4,000
   other requests, long after the server's 256-entry LRU evicted it, so
   every request is a miss *)
let fresh_pairs = 4096

(* the evidence an ingest_live round posts, one body per version:
   every round posts it from the start to a fresh server, and the gate
   replays it once per run. Generating and replaying it costs about
   0.2 s per 1,000 events each, so a round is short and a run has
   several. *)
let ingest_versions = 64

(* ingest_live warms up on its first versions rather than for [warm_s] *)
let ingest_warm_versions = 8

(* events per operation: an ingest_live operation is one version *)
let events_per_op = function Ingest_live -> Gate.batch | _ -> 1

let ns s = int_of_float (s *. 1e9)
let seconds ns = float_of_int ns /. 1e9

type slice = {
  dur_s : float;  (** first request sent -> last answer received *)
  lat_us : float array;  (** one per operation *)
  cpu_s : float;  (** server user+system seconds over the slice *)
  factor : float;  (** the machine's slowdown around it, [Calib.factor] *)
}

type round = {
  slices : slice list;
  flight : Net.flight list;
  refused : int;
  versions : int;
}

type state = {
  kind : kind;
  model_path : string;
  gate : Gate.t;
  queries : string array;
      (** what the clients ask, in turn: serve_hot's 128 cached pairs,
          the fresh pairs, or ingest_live's 32 reader pairs *)
  bodies : string array;  (** ingest_live: POST bodies, one per version *)
  attempted : int Atomic.t;
  failed : int Atomic.t;  (** typed errors, transport failures, evidence refusals *)
  mutable setups : (float * float) list;
      (** spawn -> first answer, seconds, and the slowdown around it *)
  mutable speed : float list;  (** every [Calib.sample] reading, newest first *)
  mutable rounds : round list;  (** newest first *)
}

let fail st = Atomic.incr st.failed

(* ----- set-up ----- *)

(* A speed reading, kept with the others; returns it. *)
let read_speed st =
  let r = Calib.sample () in
  st.speed <- r :: st.speed;
  r

(* spawn -> first answer to the workload's first query *)
let setup st ~exe ~log =
  Atomic.incr st.attempted;
  let spawned = Clock.now_ns () in
  let srv = Net.spawn ~exe ~model:st.model_path ~log in
  Fun.protect ~finally:(fun () -> Net.stop srv) @@ fun () ->
  let s = Net.session srv.Net.port in
  Fun.protect ~finally:(fun () -> Net.close_session s) @@ fun () ->
  match Net.ask s st.queries.(0) with
  | Some a when Net.is_answer a -> Some (seconds (Clock.now_ns () - spawned))
  | _ ->
    fail st;
    None

let measure_setups st ~exe ~log =
  let before = ref (read_speed st) in
  for _ = 1 to setup_runs do
    let s = setup st ~exe ~log in
    let after = read_speed st in
    Option.iter
      (fun s -> st.setups <- (s, Calib.factor ~before:!before ~after) :: st.setups)
      s;
    before := after
  done

(* ----- slices ----- *)

(* Slices until the round's window is measured or [measure] returns no
   operation (its inputs ran out, or its session broke). [measure
   ~until] runs operations begun before [until] and returns their
   latencies and when the last one ended. *)
let measure_slices st timing (srv : Net.server) measure =
  let rec go acc measured before =
    if measured >= timing.window_s -. 1e-6 then List.rev acc
    else begin
      let c0 = Net.cpu_seconds srv.Net.pid in
      let t0 = Clock.now_ns () in
      let lat, t1 = measure ~until:(t0 + ns (Float.min slice_s (timing.window_s -. measured))) in
      if lat = [||] then List.rev acc
      else
        let cpu_s = Net.cpu_seconds srv.Net.pid -. c0 in
        let after = read_speed st in
        let s = { dur_s = seconds (t1 - t0); lat_us = lat; cpu_s; factor = Calib.factor ~before ~after } in
        go (s :: acc) (measured +. s.dur_s) after
    end
  in
  go [] 0.0 (read_speed st)

(* The round's record, with the final /healthz (whose digest the gate
   checks). *)
let finish_round st (srv : Net.server) slices =
  let flight = Net.flight_records srv.Net.port in
  let refused, versions =
    match Net.health srv.Net.port with
    | Some h ->
      Gate.digest st.gate ~version:h.Net.version h.Net.digest;
      (h.Net.refused, h.Net.version)
    | None ->
      fail st;
      (0, 0)
  in
  st.rounds <- { slices; flight; refused; versions } :: st.rounds

(* Two closed-loop clients on their own connections, each cycling over
   its half of the queries from where it stopped. *)
let query_round st timing (srv : Net.server) =
  let half = Array.length st.queries / 2 in
  let sessions = [| Net.session srv.Net.port; Net.session srv.Net.port |] in
  Fun.protect ~finally:(fun () -> Array.iter Net.close_session sessions) @@ fun () ->
  let next = [| 0; 0 |] in
  let measure ~until =
    let lat = [| Buf.create (); Buf.create () |] and last = [| 0; 0 |] in
    let client i () =
      let running = ref true in
      while !running && Clock.now_ns () < until do
        let k = next.(i) in
        next.(i) <- k + 1;
        let line = st.queries.((i * half) + (k mod half)) in
        Atomic.incr st.attempted;
        let t0 = Clock.now_ns () in
        match Net.ask sessions.(i) line with
        | Some a when Net.is_answer a ->
          last.(i) <- Clock.now_ns ();
          Buf.push lat.(i) (float_of_int (last.(i) - t0) /. 1e3);
          if (k + 1) mod gate_every = 0 then
            Gate.answer st.gate ~version:(Net.version_of a) ~query:line ~served:a
        | Some _ -> fail st
        | None ->
          fail st;
          running := false
      done
    in
    List.iter Thread.join (List.init 2 (fun i -> Thread.create (client i) ()));
    (Array.append (Buf.contents lat.(0)) (Buf.contents lat.(1)), max last.(0) last.(1))
  in
  ignore (measure ~until:(Clock.now_ns () + ns timing.warm_s));
  finish_round st srv (measure_slices st timing srv measure)

(* One client: POST the next version's 256 events, then ask the reader
   pairs in turn until an answer carries that version. An operation
   runs from the POST to that answer. *)
let ingest_round st timing (srv : Net.server) =
  let s = Net.session srv.Net.port in
  Fun.protect ~finally:(fun () -> Net.close_session s) @@ fun () ->
  let n = Array.length st.queries in
  let k = ref 0 in
  (* false when the session broke or an answer was an error *)
  let rec ask_until v =
    let q = st.queries.(!k mod n) in
    Atomic.incr st.attempted;
    incr k;
    match Net.ask s q with
    | Some a when Net.is_answer a ->
      let version = Net.version_of a in
      if !k mod gate_every = 0 then Gate.answer st.gate ~version ~query:q ~served:a;
      version >= v || ask_until v
    | _ ->
      fail st;
      false
  in
  let post v =
    Atomic.incr st.attempted;
    match Net.http srv.Net.port ~meth:"POST" ~path:"/evidence" ~body:st.bodies.(v) () with
    | Some (202, _) -> ask_until (v + 1)
    | _ ->
      fail st;
      false
  in
  let rec warm v = v = ingest_warm_versions || (post v && warm (v + 1)) in
  let v = ref ingest_warm_versions and ok = ref (ask_until 0 && warm 0) in
  let measure ~until =
    let lat = Buf.create () and last = ref 0 in
    while !ok && !v < Array.length st.bodies && Clock.now_ns () < until do
      let t0 = Clock.now_ns () in
      if post !v then begin
        last := Clock.now_ns ();
        Buf.push lat (float_of_int (!last - t0) /. 1e3);
        incr v
      end
      else ok := false
    done;
    (Buf.contents lat, !last)
  in
  finish_round st srv (measure_slices st timing srv measure)

let measured st =
  List.fold_left
    (fun a r -> List.fold_left (fun a s -> a +. s.dur_s) a r.slices)
    0.0 st.rounds

let round st timing ~exe ~workdir =
  let log = Filename.concat workdir (name st.kind ^ ".log") in
  if st.rounds = [] then measure_setups st ~exe ~log;
  let timing = { timing with window_s = Float.min timing.window_s (timing.total_s -. measured st) } in
  let srv = Net.spawn ~exe ~model:st.model_path ~log in
  Fun.protect
    ~finally:(fun () -> Net.stop srv)
    (fun () ->
      match st.kind with
      | Ingest_live -> ingest_round st timing srv
      | Serve_hot | Query_exact | Query_mh -> query_round st timing srv)

(* ----- inputs per workload ----- *)

(* One model file per model, shared by the workloads that serve it. *)
type models = {
  seed : int;
  workdir : string;
  mutable cache : (string * (Inputs.model * string)) list;
}

let models ~seed ~workdir = { seed; workdir; cache = [] }

let model ms which =
  match List.assoc_opt which ms.cache with
  | Some m -> m
  | None ->
    let m = if which = "pa" then Inputs.pa ms.seed else Inputs.synthetic ms.seed in
    let path = Filename.concat ms.workdir (which ^ ".bicm") in
    Iflow_io.Model_io.save_beta_icm path m.Inputs.beta;
    ms.cache <- (which, (m, path)) :: ms.cache;
    (m, path)

(* ingest_live's evidence, as lines and as one POST body per version *)
let evidence seed m =
  let lines = Inputs.evidence seed m (ingest_versions * Gate.batch) in
  let body v = String.concat "\n" (Array.to_list (Array.sub lines (v * Gate.batch) Gate.batch)) ^ "\n" in
  (lines, Array.init ingest_versions body)

let state ms kind =
  let m, path = model ms (if kind = Query_mh then "synthetic" else "pa") in
  let seed = ms.seed in
  let lines, bodies = if kind = Ingest_live then evidence seed m else ([||], [||]) in
  {
    kind;
    model_path = path;
    gate = Gate.create m lines;
    queries =
      (match kind with
      | Serve_hot -> Inputs.tree_lines seed m "hot" 128
      | Query_exact -> Inputs.tree_lines seed m "exact" fresh_pairs
      | Query_mh -> Inputs.mh_lines seed m fresh_pairs
      | Ingest_live -> Inputs.tree_lines seed m "reader" 32);
    bodies;
    attempted = Atomic.make 0;
    failed = Atomic.make 0;
    setups = [];
    speed = [];
    rounds = [];
  }
