module Digraph = Iflow_graph.Digraph
module Rng = Iflow_stats.Rng

(* One BFS over the ICM. Each edge out of an active node fires once; a
   fired edge is i-active even when its destination was already active
   (the object "arrives again" without effect, but the traversal
   happened, which is what attributed training counts). *)
let run rng icm ~sources =
  let g = Icm.graph icm in
  let n = Digraph.n_nodes g and m = Digraph.n_edges g in
  let active_nodes = Array.make n false in
  let active_edges = Array.make m false in
  let queue = Queue.create () in
  List.iter
    (fun v ->
      if v < 0 || v >= n then invalid_arg "Cascade.run: source out of range";
      if not active_nodes.(v) then begin
        active_nodes.(v) <- true;
        Queue.add v queue
      end)
    sources;
  while not (Queue.is_empty queue) do
    let v = Queue.pop queue in
    Digraph.iter_out g v (fun e ->
        if Rng.bernoulli rng (Icm.prob icm e) then begin
          active_edges.(e) <- true;
          let w = Digraph.edge_dst g e in
          if not active_nodes.(w) then begin
            active_nodes.(w) <- true;
            Queue.add w queue
          end
        end)
  done;
  { Evidence.sources; active_nodes; active_edges }

let run_contextual rng ~source_icm ~relay_icm ~sources =
  let g = Icm.graph source_icm in
  if Icm.graph relay_icm != g then begin
    (* allow structurally equal graphs built separately *)
    if
      Digraph.n_nodes (Icm.graph relay_icm) <> Digraph.n_nodes g
      || Digraph.n_edges (Icm.graph relay_icm) <> Digraph.n_edges g
    then invalid_arg "Cascade.run_contextual: graphs differ"
  end;
  let n = Digraph.n_nodes g and m = Digraph.n_edges g in
  let is_source = Array.make n false in
  let active_nodes = Array.make n false in
  let active_edges = Array.make m false in
  let queue = Queue.create () in
  List.iter
    (fun v ->
      if v < 0 || v >= n then
        invalid_arg "Cascade.run_contextual: source out of range";
      is_source.(v) <- true;
      if not active_nodes.(v) then begin
        active_nodes.(v) <- true;
        Queue.add v queue
      end)
    sources;
  while not (Queue.is_empty queue) do
    let v = Queue.pop queue in
    let icm = if is_source.(v) then source_icm else relay_icm in
    Digraph.iter_out g v (fun e ->
        if Rng.bernoulli rng (Icm.prob icm e) then begin
          active_edges.(e) <- true;
          let w = Digraph.edge_dst g e in
          if not active_nodes.(w) then begin
            active_nodes.(w) <- true;
            Queue.add w queue
          end
        end)
  done;
  { Evidence.sources; active_nodes; active_edges }

let run_trace rng icm ~sources =
  let o = run rng icm ~sources in
  Evidence.forget_attribution (Icm.graph icm) o

let reached_count (o : Evidence.attributed_object) =
  let is_source = Array.make (Array.length o.active_nodes) false in
  List.iter (fun v -> is_source.(v) <- true) o.sources;
  let acc = ref 0 in
  Array.iteri
    (fun v active -> if active && not is_source.(v) then incr acc)
    o.active_nodes;
  !acc
