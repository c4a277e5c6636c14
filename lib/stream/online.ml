module Digraph = Iflow_graph.Digraph
module Beta_icm = Iflow_core.Beta_icm
module Accum = Beta_icm.Accum
module Metrics = Iflow_obs.Metrics

let m_applied =
  Metrics.counter ~help:"Evidence events applied to the online model"
    "iflow_stream_events_applied_total"

let m_observations =
  Metrics.counter ~help:"Per-edge Bernoulli trials absorbed"
    "iflow_stream_observations_total"

let m_graph_changes =
  Metrics.counter ~help:"Graph-change events applied"
    "iflow_stream_graph_changes_total"

let quarantined_counter reason =
  Metrics.counter ~labels:[ ("reason", reason) ]
    ~help:"Events quarantined instead of applied"
    "iflow_stream_quarantined_total"

let m_quar_parse = quarantined_counter "parse"
let m_quar_inconsistent = quarantined_counter "inconsistent"
let m_quar_unknown = quarantined_counter "unknown_ref"

(* binary decode errors, one series per Binlog.reason *)
let m_quar_bad_crc = quarantined_counter (Binlog.reason_label Binlog.Bad_crc)
let m_quar_truncated = quarantined_counter (Binlog.reason_label Binlog.Truncated)

let m_quar_bad_varint =
  quarantined_counter (Binlog.reason_label Binlog.Bad_varint)

let m_quar_unknown_tag =
  quarantined_counter (Binlog.reason_label Binlog.Unknown_tag)

let m_drift_alerts =
  Metrics.counter ~help:"Drift alerts raised by the Hoeffding checker"
    "iflow_stream_drift_alerts_total"

let m_flagged =
  Metrics.gauge ~help:"Edges currently flagged as drifted"
    "iflow_stream_flagged_edges"

type stats = {
  applied : int;
  observations : int;
  graph_changes : int;
  parse_errors : int;
  inconsistent : int;
  unknown_refs : int;
}

let quarantined s = s.parse_errors + s.inconsistent + s.unknown_refs

(* Per-event scratch, sized to the graph and epoch stamped: [stamp.(v) =
   epoch] means "marked by the current event", so starting an event is
   one increment and checking or counting it touches only the event's
   nodes and edges and the out-edges it counts, never all n + m.
   Reallocated only when a graph change reshapes the graph. *)
type workspace = {
  mutable epoch : int;
  node_stamp : int array; (* n: active this event *)
  src_stamp : int array; (* n: a source this event *)
  entered_stamp : int array; (* n: head of a traversed edge this event *)
  time : int array; (* n: trace activation time, valid when node-stamped *)
  edge_stamp : int array; (* m: traversed this event *)
  actives : int array; (* n: active nodes in mark order *)
  mutable n_actives : int;
}

let workspace g =
  let n = Digraph.n_nodes g in
  {
    epoch = 0;
    node_stamp = Array.make n 0;
    src_stamp = Array.make n 0;
    entered_stamp = Array.make n 0;
    time = Array.make n 0;
    edge_stamp = Array.make (Digraph.n_edges g) 0;
    actives = Array.make n 0;
    n_actives = 0;
  }

type t = {
  acc : Accum.t;
  forget : float;
  drift : Drift.t option;
  mutable ws : workspace;
  mutable applied : int;
  mutable graph_changes : int;
  mutable parse_errors : int;
  mutable inconsistent : int;
  mutable unknown_refs : int;
}

let create ?(forget = 0.0) ?drift model =
  if not (forget >= 0.0 && forget < 1.0) then
    invalid_arg "Online.create: forget outside [0, 1)";
  {
    acc = Accum.of_model model;
    forget;
    drift = Option.map (fun config -> Drift.create config model) drift;
    ws = workspace (Beta_icm.graph model);
    applied = 0;
    graph_changes = 0;
    parse_errors = 0;
    inconsistent = 0;
    unknown_refs = 0;
  }

let model t = Accum.freeze t.acc
let drift t = t.drift

let stats t =
  {
    applied = t.applied;
    observations = Accum.observed t.acc;
    graph_changes = t.graph_changes;
    parse_errors = t.parse_errors;
    inconsistent = t.inconsistent;
    unknown_refs = t.unknown_refs;
  }

let decay t = if t.forget > 0.0 then Accum.decay t.acc ~lambda:t.forget

let observe t ~edge ~fired =
  Accum.observe t.acc ~edge ~fired;
  Metrics.inc m_observations;
  match t.drift with
  | Some d -> (
    match Drift.observe d ~edge ~fired with
    | Some _alert ->
      Metrics.inc m_drift_alerts;
      Metrics.set m_flagged (float_of_int (Drift.flagged d))
    | None -> ())
  | None -> ()

let applied t =
  t.applied <- t.applied + 1;
  Metrics.inc m_applied;
  `Applied

let unknown_ref t reason =
  t.unknown_refs <- t.unknown_refs + 1;
  Metrics.inc m_quar_unknown;
  `Quarantined reason

let inconsistent t reason =
  t.inconsistent <- t.inconsistent + 1;
  Metrics.inc m_quar_inconsistent;
  `Quarantined reason

(* ----- evidence events ----- *)

let in_range n v = v >= 0 && v < n

(* direct recursion rather than List.for_all / List.iter with a fresh
   closure: these run once or twice per event on the ingest hot path *)
let rec all_in_range n = function
  | [] -> true
  | v :: rest -> in_range n v && all_in_range n rest

let begin_event ws =
  ws.epoch <- ws.epoch + 1;
  ws.n_actives <- 0

let mark ws v =
  if ws.node_stamp.(v) <> ws.epoch then begin
    ws.node_stamp.(v) <- ws.epoch;
    ws.actives.(ws.n_actives) <- v;
    ws.n_actives <- ws.n_actives + 1
  end

let rec mark_all ws = function
  | [] -> ()
  | v :: rest ->
    mark ws v;
    mark_all ws rest

let rec mark_sources ws = function
  | [] -> ()
  | v :: rest ->
    ws.src_stamp.(v) <- ws.epoch;
    mark ws v;
    mark_sources ws rest

(* every active non-source node is explained by [explained] *)
let actives_explained ws explained =
  let ok = ref true and j = ref 0 in
  while !ok && !j < ws.n_actives do
    let v = ws.actives.(!j) in
    if ws.src_stamp.(v) <> ws.epoch && not (explained v) then ok := false;
    incr j
  done;
  !ok

(* Counting visits the out-edges of active nodes only: per-edge counters
   are independent and only edges with an active source carry
   information, so this gives the batch rule's model without touching
   the other O(m) edges. Nodes are visited newest-marked first, which
   fixes the order drift windows see trials in. *)
let iter_out_of_actives g ws f =
  for j = ws.n_actives - 1 downto 0 do
    Digraph.iter_out g ws.actives.(j) f
  done

(* Stamp the traversed edges and their heads. The first pair not in the
   graph (an out-of-range endpoint included) is returned to name the
   quarantine; a traversed edge with an inactive endpoint makes the
   object inconsistent, reported by [endpoints_active := false]. *)
let rec stamp_edges g ws endpoints_active = function
  | [] -> None
  | (s, d) :: rest -> (
    let n = Digraph.n_nodes g in
    match
      if in_range n s && in_range n d then Digraph.find_edge g ~src:s ~dst:d
      else None
    with
    | Some e ->
      ws.edge_stamp.(e) <- ws.epoch;
      ws.entered_stamp.(d) <- ws.epoch;
      if ws.node_stamp.(s) <> ws.epoch || ws.node_stamp.(d) <> ws.epoch then
        endpoints_active := false;
      stamp_edges g ws endpoints_active rest
    | None -> Some (s, d))

let apply_attributed t ~sources ~nodes ~edges =
  let g = Accum.graph t.acc in
  let n = Digraph.n_nodes g in
  if not (all_in_range n sources && all_in_range n nodes) then
    unknown_ref t "attributed: node id out of range"
  else begin
    let ws = t.ws in
    begin_event ws;
    mark_sources ws sources;
    mark_all ws nodes;
    let endpoints_active = ref true in
    match stamp_edges g ws endpoints_active edges with
    | Some (s, d) ->
      unknown_ref t (Printf.sprintf "attributed: unknown edge (%d, %d)" s d)
    | None ->
      let ep = ws.epoch in
      (* Evidence.attributed_object_is_consistent: traversed edges join
         active nodes, and every active non-source was entered by one *)
      if
        not
          (!endpoints_active
          && actives_explained ws (fun v -> ws.entered_stamp.(v) = ep))
      then inconsistent t "attributed: inconsistent object"
      else begin
        (* the train_attributed counting rule: a traversed edge is a
           success, an untraversed out-edge of an active node a failure *)
        iter_out_of_actives g ws (fun e ->
            observe t ~edge:e ~fired:(ws.edge_stamp.(e) = ep));
        applied t
      end
  end

let rec times_in_range n = function
  | [] -> true
  | (v, tm) :: rest -> in_range n v && tm >= 0 && times_in_range n rest

let apply_trace t ~sources ~times =
  let g = Accum.graph t.acc in
  let n = Digraph.n_nodes g in
  (* Evidence.trace_of_active's range gate *)
  if not (times_in_range n times && all_in_range n sources) then
    unknown_ref t "trace: node id or time out of range"
  else begin
    let ws = t.ws in
    begin_event ws;
    let ep = ws.epoch in
    (* sources activate at time 0, overriding any listed time; later
       times entries overwrite earlier ones *)
    List.iter (fun v -> ws.time.(v) <- 0) sources;
    mark_sources ws sources;
    List.iter
      (fun (v, tm) ->
        if ws.src_stamp.(v) <> ep then ws.time.(v) <- tm;
        mark ws v)
      times;
    let time_of v = if ws.node_stamp.(v) = ep then ws.time.(v) else -1 in
    (* Evidence.trace_is_consistent: every non-source has a parent
       active strictly earlier *)
    if
      not
        (actives_explained ws (fun v ->
             let tv = ws.time.(v) in
             Digraph.fold_in g v ~init:false ~f:(fun found e ->
                 found
                 ||
                 let tu = time_of (Digraph.edge_src g e) in
                 tu >= 0 && tu < tv)))
    then inconsistent t "trace: inconsistent activation times"
    else begin
      (* naive frequency rule: u active at tu attempted every out-edge;
         v joining at tu+1 is a success, v provably not fresh at tu+1
         (never active, or active strictly later) a failure, v already
         active no information *)
      iter_out_of_actives g ws (fun e ->
          let tu = ws.time.(Digraph.edge_src g e)
          and tv = time_of (Digraph.edge_dst g e) in
          if tv = tu + 1 then observe t ~edge:e ~fired:true
          else if tv < 0 || tv > tu + 1 then observe t ~edge:e ~fired:false);
      applied t
    end
  end

(* ----- graph-change events ----- *)

let reanchor_drift t =
  match t.drift with
  | Some d ->
    Drift.reset d (Accum.freeze t.acc);
    Metrics.set m_flagged 0.0
  | None -> ()

let apply_graph_change t what f =
  match f () with
  | () ->
    t.ws <- workspace (Accum.graph t.acc);
    t.graph_changes <- t.graph_changes + 1;
    Metrics.inc m_graph_changes;
    reanchor_drift t;
    applied t
  | exception Invalid_argument msg ->
    unknown_ref t (Printf.sprintf "%s: %s" what msg)

let apply t event =
  match event with
  | Event.Attributed { sources; nodes; edges } ->
    apply_attributed t ~sources ~nodes ~edges
  | Event.Trace { sources; times } -> apply_trace t ~sources ~times
  | Event.Add_nodes { count } ->
    apply_graph_change t "add_nodes" (fun () ->
        Accum.grow t.acc ~new_nodes:count ~new_edges:[])
  | Event.Add_edges { edges; prior } ->
    apply_graph_change t "add_edges" (fun () ->
        Accum.grow t.acc ~new_nodes:0
          ~new_edges:(List.map (fun (s, d) -> (s, d, prior)) edges))
  | Event.Remove_edges { edges } ->
    apply_graph_change t "remove_edges" (fun () ->
        Accum.remove_edges t.acc edges)

let parse_error t counter reason =
  t.parse_errors <- t.parse_errors + 1;
  Metrics.inc counter;
  `Quarantined reason

let apply_line ?lineno t line =
  match Event.of_line ?lineno line with
  | Ok event -> apply t event
  | Error msg -> parse_error t m_quar_parse msg

let apply_record t = function
  | Ok event -> apply t event
  | Error (e : Binlog.error) ->
    parse_error t
      (match e.reason with
      | Binlog.Bad_crc -> m_quar_bad_crc
      | Binlog.Truncated -> m_quar_truncated
      | Binlog.Bad_varint -> m_quar_bad_varint
      | Binlog.Unknown_tag -> m_quar_unknown_tag)
      (Binlog.error_message e)

let pp_stats ppf (s : stats) =
  Format.fprintf ppf
    "%d events applied (%d observations, %d graph changes), %d quarantined \
     (%d parse, %d inconsistent, %d unknown refs)"
    s.applied s.observations s.graph_changes (quarantined s) s.parse_errors
    s.inconsistent s.unknown_refs
