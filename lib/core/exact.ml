module Digraph = Iflow_graph.Digraph

(* Paper Equation (2):
   Pr[ s ~> k ex. X ] =
     1 - prod over edges (l, k) with l not in X of
           (1 - Pr[ s ~> l ex. X + {k} ] * p_{l,k})
   with Pr[ s ~> s ex. _ ] = 1. Sinks accumulate in X, so the recursion
   terminates; X is a bitmask over nodes. *)
let node_limit = 62

(* The raw recursion, unchecked: callers guard size and range. *)
let eq2 icm ~src ~dst =
  let g = Icm.graph icm in
  let memo = Hashtbl.create 1024 in
  let rec pr target exclude =
    if target = src then 1.0
    else begin
      match Hashtbl.find_opt memo (target, exclude) with
      | Some p -> p
      | None ->
        let exclude' = exclude lor (1 lsl target) in
        let product =
          Digraph.fold_in g target ~init:1.0 ~f:(fun acc e ->
              let l = Digraph.edge_src g e in
              if exclude land (1 lsl l) <> 0 then acc
              else acc *. (1.0 -. (pr l exclude' *. Icm.prob icm e)))
        in
        let p = 1.0 -. product in
        Hashtbl.add memo (target, exclude) p;
        p
    end
  in
  pr dst 0

let check_range name icm ~src ~dst =
  let n = Icm.n_nodes icm in
  if src < 0 || src >= n || dst < 0 || dst >= n then
    invalid_arg ("Exact." ^ name ^ ": node out of range")

let flow_probability icm ~src ~dst =
  if Icm.n_nodes icm > node_limit then
    invalid_arg "Exact.flow_probability: more than 62 nodes";
  check_range "flow_probability" icm ~src ~dst;
  eq2 icm ~src ~dst

(* Shared brute-force loop: fold a function over every pseudo-state with
   its probability. *)
let fold_pseudo_states icm ~init ~f =
  let m = Icm.n_edges icm in
  if m > 24 then invalid_arg "Exact: brute force limited to 24 edges";
  let state = Pseudo_state.create m in
  let acc = ref init in
  for code = 0 to (1 lsl m) - 1 do
    let prob = ref 1.0 in
    for e = 0 to m - 1 do
      let active = code land (1 lsl e) <> 0 in
      Pseudo_state.set state e active;
      let p = Icm.prob icm e in
      prob := !prob *. (if active then p else 1.0 -. p)
    done;
    if !prob > 0.0 then acc := f !acc state !prob
  done;
  !acc

let brute_force_flow icm ~src ~dst =
  fold_pseudo_states icm ~init:0.0 ~f:(fun acc state prob ->
      if Pseudo_state.flow icm state ~src ~dst then acc +. prob else acc)

let satisfies icm state conditions =
  List.for_all
    (fun (u, v, a) -> Pseudo_state.flow icm state ~src:u ~dst:v = a)
    conditions

let brute_force_conditional icm ~conditions ~src ~dst =
  let joint, marginal =
    fold_pseudo_states icm ~init:(0.0, 0.0)
      ~f:(fun (joint, marginal) state prob ->
        if satisfies icm state conditions then begin
          let marginal = marginal +. prob in
          if Pseudo_state.flow icm state ~src ~dst then (joint +. prob, marginal)
          else (joint, marginal)
        end
        else (joint, marginal))
  in
  if marginal <= 0.0 then
    failwith "Exact.brute_force_conditional: conditions have probability 0";
  joint /. marginal

let brute_force_community icm ~src ~sinks =
  fold_pseudo_states icm ~init:0.0 ~f:(fun acc state prob ->
      let reached = Pseudo_state.reachable icm state ~sources:[ src ] in
      if List.for_all (fun v -> reached.(v)) sinks then acc +. prob else acc)

let brute_force_impact icm ~src =
  let n = Icm.n_nodes icm in
  let impact = Array.make n 0.0 in
  let _ =
    fold_pseudo_states icm ~init:() ~f:(fun () state prob ->
        let reached = Pseudo_state.reachable icm state ~sources:[ src ] in
        let count = ref 0 in
        Array.iteri (fun v r -> if r && v <> src then incr count) reached;
        impact.(!count) <- impact.(!count) +. prob)
  in
  impact
