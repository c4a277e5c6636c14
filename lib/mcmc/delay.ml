module Icm = Iflow_core.Icm
module Digraph = Iflow_graph.Digraph
module Rng = Iflow_stats.Rng
module Dist = Iflow_stats.Dist

type dist =
  | Constant of float
  | Uniform of float * float
  | Exponential of float
  | Gamma of { shape : float; scale : float }

let sample_dist rng = function
  | Constant c ->
    if c < 0.0 then invalid_arg "Delay: negative constant";
    c
  | Uniform (lo, hi) ->
    if lo < 0.0 || hi < lo then invalid_arg "Delay: bad uniform range";
    Rng.uniform_in rng lo hi
  | Exponential mean ->
    if mean <= 0.0 then invalid_arg "Delay: non-positive mean";
    -.mean *. Float.log (Float.max (Rng.uniform rng) 1e-300)
  | Gamma { shape; scale } -> Dist.gamma rng ~shape ~scale

type t = { icm : Icm.t; delays : dist array }

let uniform_delay icm dist =
  { icm; delays = Array.make (Icm.n_edges icm) dist }

(* Dijkstra on the active subgraph. Node count is small relative to the
   sampling loop, so a sorted-set frontier is plenty. *)
module Frontier = Set.Make (struct
  type t = float * int

  let compare = compare
end)

let earliest_arrival icm ~active ~delay ~src ~dst =
  let g = Icm.graph icm in
  let n = Digraph.n_nodes g in
  if src < 0 || src >= n || dst < 0 || dst >= n then
    invalid_arg "Delay.earliest_arrival: node out of range";
  let best = Array.make n Float.infinity in
  best.(src) <- 0.0;
  let frontier = ref (Frontier.singleton (0.0, src)) in
  let result = ref None in
  while !result = None && not (Frontier.is_empty !frontier) do
    let ((time, v) as entry) = Frontier.min_elt !frontier in
    frontier := Frontier.remove entry !frontier;
    if v = dst then result := Some time
    else if time <= best.(v) then
      Digraph.iter_out g v (fun e ->
          if active e then begin
            let w = Digraph.edge_dst g e in
            let t' = time +. delay e in
            if t' < best.(w) then begin
              best.(w) <- t';
              frontier := Frontier.add (t', w) !frontier
            end
          end)
  done;
  !result

type arrival_sample = { reached : int; missed : int; times : float array }

let arrival_samples ?conditions rng t config ~src ~dst =
  let times = ref [] in
  let reached = ref 0 and missed = ref 0 in
  let () =
    Estimator.fold_samples ?conditions rng t.icm config ~init:()
      ~f:(fun () state ->
        let active = Iflow_core.Pseudo_state.get state in
        let delay e = sample_dist rng t.delays.(e) in
        match earliest_arrival t.icm ~active ~delay ~src ~dst with
        | Some time ->
          incr reached;
          times := time :: !times
        | None -> incr missed)
  in
  { reached = !reached; missed = !missed; times = Array.of_list !times }

let probability_within ?conditions rng t config ~src ~dst ~deadline =
  let { reached; missed; times } =
    arrival_samples ?conditions rng t config ~src ~dst
  in
  let in_time =
    Array.fold_left (fun c time -> if time <= deadline then c + 1 else c) 0 times
  in
  float_of_int in_time /. float_of_int (reached + missed)
