module Icm = Iflow_core.Icm
module Pseudo_state = Iflow_core.Pseudo_state
module Reach = Iflow_graph.Reach
module Rng = Iflow_stats.Rng
module Metrics = Iflow_obs.Metrics

let m_repair_flips =
  Metrics.counter
    ~help:"Edges flipped while repairing an initial state into the \
           conditioned slice"
    "iflow_mcmc_repair_flips_total"

type constrained_flow = { cond_src : int; cond_dst : int; required : bool }
type t = constrained_flow list

let empty = []

let v list =
  let seen = Hashtbl.create 16 in
  let conds =
    List.map
      (fun (u, v, required) ->
        if u = v && not required then
          invalid_arg
            (Printf.sprintf
               "Conditions.v: %d ~> %d can never be false (a source always \
                holds its own object)"
               u v);
        (match Hashtbl.find_opt seen (u, v) with
        | Some prev when prev <> required ->
          invalid_arg
            (Printf.sprintf "Conditions.v: contradictory conditions on %d ~> %d"
               u v)
        | _ -> Hashtbl.replace seen (u, v) required);
        { cond_src = u; cond_dst = v; required })
      list
  in
  (* grouped by source so the indicator needs one reachability sweep
     per distinct source ([satisfied_ws] relies on this) *)
  List.stable_sort (fun a b -> compare a.cond_src b.cond_src) conds

let is_empty t = t = []
let to_list t = List.map (fun c -> (c.cond_src, c.cond_dst, c.required)) t
let length = List.length

let sources t = List.sort_uniq compare (List.map (fun c -> c.cond_src) t)

let satisfied_ws ws icm state t =
  match t with
  | [] -> true
  | _ ->
    (* conditions are sorted by source (see [v]): one BFS per distinct
       source, all into the same workspace, no allocation *)
    let g = Icm.graph icm in
    let active = Pseudo_state.get state in
    let rec go current = function
      | [] -> true
      | { cond_src; cond_dst; required } :: rest ->
        if cond_src <> current then Reach.bfs ws ~active g ~src:cond_src;
        if Reach.marked ws cond_dst = required then go cond_src rest
        else false
    in
    go (-1) t

let satisfied icm state t =
  is_empty t || satisfied_ws (Reach.workspace (Icm.n_nodes icm)) icm state t

let repair_positive ws icm state { cond_src; cond_dst; _ } =
  (* Activate a path through edges that are allowed to be active
     (p > 0), preferring already-active ones: a 0-1 BFS in which active
     edges cost nothing finds the path activating the fewest new edges,
     so the repair perturbs the state as little as possible. *)
  let g = Icm.graph icm in
  let usable e = Icm.prob icm e > 0.0 in
  let zero_cost e = Pseudo_state.get state e in
  match
    Reach.cheapest_path ws ~usable ~zero_cost g ~src:cond_src ~dst:cond_dst
  with
  | None -> false
  | Some edges ->
    Metrics.add m_repair_flips
      (List.length (List.filter (fun e -> not (Pseudo_state.get state e)) edges));
    List.iter (fun e -> Pseudo_state.set state e true) edges;
    true

let repair_negative ws rng icm state { cond_src; cond_dst; _ } =
  (* While an active path exists, cut a random deactivatable edge on it. *)
  let g = Icm.graph icm in
  let rec loop budget =
    if budget = 0 then false
    else begin
      match
        Reach.shortest_path ws ~active:(Pseudo_state.get state) g
          ~src:cond_src ~dst:cond_dst
      with
      | None -> true
      | Some edges ->
        let cuttable =
          List.filter (fun e -> Icm.prob icm e < 1.0) edges
        in
        (match cuttable with
        | [] -> false
        | _ ->
          let e = Rng.choose rng (Array.of_list cuttable) in
          Metrics.inc m_repair_flips;
          Pseudo_state.set state e false;
          loop (budget - 1))
    end
  in
  loop (Icm.n_edges icm + 1)

let initial_state rng icm t =
  let s = Pseudo_state.sample rng icm in
  if is_empty t then Some s
  else begin
    (* A draw that satisfies C is an exact draw from Pr (x | C) and is
       kept as it is. Otherwise a greedy repair of that draw: positive
       conditions first (adding edges), then negative (cutting), then
       re-check; cutting can break a positive condition, so iterate a
       few times. The repair only activates edges with p > 0 and only
       cuts edges with p < 1, so the state keeps positive probability. *)
    let ws = Reach.workspace (Icm.n_nodes icm) in
    let rec attempt s tries =
      let rec rounds k =
        satisfied_ws ws icm s t
        || k > 0
           && List.for_all
                (fun c ->
                  if c.required then repair_positive ws icm s c
                  else repair_negative ws rng icm s c)
                t
           && rounds (k - 1)
      in
      if rounds (2 + length t) then Some s
      else if tries = 1 then None
      else attempt (Pseudo_state.sample rng icm) (tries - 1)
    in
    attempt s 20
  end

let pp ppf t =
  Format.fprintf ppf "{";
  List.iteri
    (fun i { cond_src; cond_dst; required } ->
      if i > 0 then Format.fprintf ppf ", ";
      Format.fprintf ppf "%d %s %d" cond_src
        (if required then "~>" else "!~>")
        cond_dst)
    t;
  Format.fprintf ppf "}"
