(* Batch flow queries through the parallel query engine.

   Scenario: a security team holds one trained model of how documents
   move through an organisation and needs many leak-risk numbers at
   once — every (workstation, external sink) pair, plus a few
   conditional "given the mail gateway already has it" variants. The
   engine answers the whole batch with multi-chain MH, stops each query
   adaptively once split-R-hat and the Monte-Carlo standard error pass,
   dedups repeats, and memoises results in its LRU cache. *)

module Gen = Iflow_graph.Gen
module Icm = Iflow_core.Icm
module Rng = Iflow_stats.Rng
module Engine = Iflow_engine.Engine
module Query = Iflow_engine.Query
module Lru = Iflow_engine.Lru

let () =
  let rng = Rng.create 2012 in
  let nodes = 60 in
  let g = Gen.preferential_attachment rng ~nodes ~mean_out_degree:3 in
  let m = Iflow_graph.Digraph.n_edges g in
  let icm = Icm.create g (Array.init m (fun _ -> 0.2 +. (0.7 *. Rng.uniform rng))) in

  let engine = Engine.create ~seed:7 icm in
  Printf.printf "model %s: %d nodes, %d edges; pool of %d domain(s)\n\n"
    (String.sub (Engine.digest engine) 0 8) nodes m (Engine.pool_size engine);

  (* risk of three workstations leaking to two external sinks — the
     latest-arriving nodes the graph can actually route to — plus the
     same queries again (dedup) and a conditional variant: "given the
     object already crossed workstation 0's first hop" *)
  let workstations = [ 0; 1; 2 ] in
  let sinks =
    List.filteri (fun i _ -> i < 2)
      (List.filter
         (fun dst ->
           List.for_all
             (fun src -> Iflow_graph.Traverse.reaches g ~src ~dst)
             workstations)
         (List.init (nodes - 3) (fun i -> nodes - 1 - i)))
  in
  let far_sink = List.hd sinks in
  let conditional =
    match Iflow_graph.Digraph.out_neighbours g 0 with
    | hop :: _ ->
      [ Query.flow ~conditions:[ (0, hop, true) ] ~src:0 ~dst:far_sink () ]
    | [] -> []
  in
  let queries =
    List.concat_map
      (fun src -> List.map (fun dst -> Query.flow ~src ~dst ()) sinks)
      workstations
    @ List.map (fun src -> Query.flow ~src ~dst:far_sink ()) workstations
    @ conditional
  in

  let results = List.map (Engine.query engine) queries in
  Printf.printf "%-28s %10s %8s %8s %9s %7s\n" "query" "estimate" "rhat"
    "ess" "samples" "cached";
  List.iter2
    (fun q (r : Engine.result) ->
      Printf.printf "%-28s %10.5f %8.4f %8.0f %9d %7s\n"
        (Format.asprintf "%a" Query.pp q)
        r.Engine.estimate r.Engine.rhat r.Engine.ess r.Engine.total_samples
        (if r.Engine.cached then "yes" else "no"))
    queries results;

  Format.printf "\ncache: %a\n" Lru.pp_stats (Engine.cache_stats engine)
