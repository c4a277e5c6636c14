module Icm = Iflow_core.Icm
module Pseudo_state = Iflow_core.Pseudo_state
module Reach = Iflow_graph.Reach
module Rng = Iflow_stats.Rng

type config = { burn_in : int; thin : int; samples : int }

let default_config = { burn_in = 1000; thin = 20; samples = 1000 }

let validate { burn_in; thin; samples } =
  if burn_in < 0 || thin < 1 || samples < 1 then
    invalid_arg "Estimator: bad config"

exception Cancelled

let () =
  Printexc.register_printer (function
    | Cancelled -> Some "Iflow_mcmc.Estimator.Cancelled"
    | _ -> None)

type stream = {
  chain : Chain.t;
  stream_rng : Rng.t;
  stream_thin : int;
  stream_cancel : Cancel.t;
}

(* Cancellation granularity inside the burn-in: the token is polled
   every [burnin_chunk] MH steps. Chunking [Chain.advance] is exact —
   the step/RNG sequence is identical to one big advance (the only
   repeated work is the metrics flush) — so an unexpired token cannot
   perturb the chain. *)
let burnin_chunk = 128

let stream ?(cancel = Cancel.none) ?conditions rng icm ~burn_in ~thin =
  if burn_in < 0 || thin < 1 then invalid_arg "Estimator.stream: bad config";
  if Cancel.cancelled cancel then raise Cancelled;
  let chain = Chain.create ?conditions rng icm in
  let t0 = Iflow_obs.Clock.now_ns () in
  let remaining = ref burn_in in
  while !remaining > 0 do
    let k = min burnin_chunk !remaining in
    Chain.advance rng chain k;
    remaining := !remaining - k;
    if !remaining > 0 && Cancel.cancelled cancel then raise Cancelled
  done;
  ignore
    (Iflow_obs.Trace.phase "mcmc.burnin"
       ~args:[ ("steps", Iflow_obs.Trace.Int burn_in) ]
       ~t0);
  { chain; stream_rng = rng; stream_thin = thin; stream_cancel = cancel }

let stream_next st ~f =
  if Cancel.cancelled st.stream_cancel then raise Cancelled;
  Chain.advance st.stream_rng st.chain st.stream_thin;
  f (Chain.state st.chain)

let stream_workspace st = Chain.workspace st.chain

(* [fold_samples] that also hands [f] the chain's own BFS workspace,
   valid only inside that call, so per-sample reachability sweeps
   allocate nothing; every built-in estimator goes through it *)
let fold_samples_ws ?conditions rng icm config ~init ~f =
  validate config;
  let st = stream ?conditions rng icm ~burn_in:config.burn_in ~thin:config.thin in
  let ws = Chain.workspace st.chain in
  let acc = ref init in
  for _ = 1 to config.samples do
    acc := stream_next st ~f:(fun state -> f !acc ws state)
  done;
  !acc

let fold_samples ?conditions rng icm config ~init ~f =
  fold_samples_ws ?conditions rng icm config ~init ~f:(fun acc _ws state ->
      f acc state)

let flow_probability ?conditions rng icm config ~src ~dst =
  let hits =
    fold_samples_ws ?conditions rng icm config ~init:0 ~f:(fun acc ws state ->
        if Pseudo_state.flow_ws ws icm state ~src ~dst then acc + 1 else acc)
  in
  float_of_int hits /. float_of_int config.samples

let conditional_flow_by_ratio rng icm config ~conditions ~src ~dst =
  let joint, satisfied =
    fold_samples_ws rng icm config ~init:(0, 0)
      ~f:(fun (joint, satisfied) ws state ->
        if Conditions.satisfied_ws ws icm state conditions then begin
          let satisfied = satisfied + 1 in
          if Pseudo_state.flow_ws ws icm state ~src ~dst then
            (joint + 1, satisfied)
          else (joint, satisfied)
        end
        else (joint, satisfied))
  in
  if satisfied = 0 then
    failwith "Estimator.conditional_flow_by_ratio: no sample satisfied C";
  float_of_int joint /. float_of_int satisfied

let source_to_all ?conditions rng icm config ~src =
  let n = Icm.n_nodes icm in
  let counts = Array.make n 0 in
  let () =
    fold_samples_ws ?conditions rng icm config ~init:() ~f:(fun () ws state ->
        Pseudo_state.reachable_ws ws icm state ~sources:[ src ];
        for v = 0 to n - 1 do
          if Reach.marked ws v then counts.(v) <- counts.(v) + 1
        done)
  in
  Array.map (fun c -> float_of_int c /. float_of_int config.samples) counts

let community_flow ?conditions rng icm config ~src ~sinks =
  let hits =
    fold_samples_ws ?conditions rng icm config ~init:0 ~f:(fun acc ws state ->
        Pseudo_state.reachable_ws ws icm state ~sources:[ src ];
        if List.for_all (fun v -> Reach.marked ws v) sinks then acc + 1
        else acc)
  in
  float_of_int hits /. float_of_int config.samples

let joint_flow ?conditions rng icm config ~flows =
  let hits =
    fold_samples_ws ?conditions rng icm config ~init:0 ~f:(fun acc ws state ->
        let all =
          List.for_all
            (fun (u, v) -> Pseudo_state.flow_ws ws icm state ~src:u ~dst:v)
            flows
        in
        if all then acc + 1 else acc)
  in
  float_of_int hits /. float_of_int config.samples

let impact_samples ?conditions rng icm config ~src =
  let n = Icm.n_nodes icm in
  let out = Array.make config.samples 0 in
  let i = ref 0 in
  let () =
    fold_samples_ws ?conditions rng icm config ~init:() ~f:(fun () ws state ->
        Pseudo_state.reachable_ws ws icm state ~sources:[ src ];
        let count = ref 0 in
        for v = 0 to n - 1 do
          if v <> src && Reach.marked ws v then incr count
        done;
        out.(!i) <- !count;
        incr i)
  in
  out
