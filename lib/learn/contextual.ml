module Digraph = Iflow_graph.Digraph
module Beta = Iflow_stats.Dist.Beta
module Beta_icm = Iflow_core.Beta_icm
module Evidence = Iflow_core.Evidence

type context = From_source | From_relay

type counts = { mutable fired : int; mutable held : int }

type t = {
  graph : Digraph.t;
  source_counts : counts array; (* per edge *)
  relay_counts : counts array;
}

let train g objects =
  let m = Digraph.n_edges g in
  let fresh () = Array.init m (fun _ -> { fired = 0; held = 0 }) in
  let source_counts = fresh () and relay_counts = fresh () in
  List.iter
    (fun (o : Evidence.attributed_object) ->
      if not (Evidence.attributed_object_is_consistent g o) then
        invalid_arg "Contextual.train: inconsistent object";
      let is_source = Array.make (Digraph.n_nodes g) false in
      List.iter (fun v -> is_source.(v) <- true) o.Evidence.sources;
      for e = 0 to m - 1 do
        let parent = Digraph.edge_src g e in
        if o.Evidence.active_nodes.(parent) then begin
          let bucket =
            if is_source.(parent) then source_counts.(e) else relay_counts.(e)
          in
          if o.Evidence.active_edges.(e) then bucket.fired <- bucket.fired + 1
          else bucket.held <- bucket.held + 1
        end
      done)
    objects;
  { graph = g; source_counts; relay_counts }

let counts_for t context =
  match context with
  | From_source -> t.source_counts
  | From_relay -> t.relay_counts

let edge_beta t context e =
  let c = (counts_for t context).(e) in
  Beta.of_counts ~successes:c.fired ~failures:c.held

let pooled t =
  let m = Digraph.n_edges t.graph in
  Beta_icm.create t.graph
    (Array.init m (fun e ->
         let s = t.source_counts.(e) and r = t.relay_counts.(e) in
         Beta.of_counts ~successes:(s.fired + r.fired)
           ~failures:(s.held + r.held)))

let context_gap t e =
  Beta.mean (edge_beta t From_source e) -. Beta.mean (edge_beta t From_relay e)
