module Digraph = Iflow_graph.Digraph
module Reach = Iflow_graph.Reach
module Icm = Iflow_core.Icm
module Metrics = Iflow_obs.Metrics
module Trace = Iflow_obs.Trace
module Clock = Iflow_obs.Clock
module Domain_slot = Iflow_core.Domain_slot

(* The planner proper: given a query's targets and conditions, decide
   whether the whole query is answerable in closed form, and answer it.

   A query is a conjunction of flow targets (src, dst) — one for a flow
   query, one per sink for a community, one per pair for a joint —
   conditioned on flow conditions (u, v, ±). It is answered exactly
   when
   - every target cone individually certifies (Cone), and
   - all target cones are pairwise edge-disjoint (their events then
     depend on disjoint edge coins, so the conjunction is the product),
     and
   - every condition is either vacuous (a negative condition on an
     impossible flow), or individually feasible with a cone that is
     edge-disjoint from all target cones and all other condition cones
     — independence then gives Pr[targets | conditions] = Pr[targets]
     and Pr[conditions] > 0.
   Anything else falls back to sampling with a counted reason; the
   planner never approximates. *)

type reason =
  | Disabled
  | Unsound_join of { node : int } (* model node id of the fork *)
  | Cyclic_cone of { node : int } (* a node of a cycle inside the cone *)
  | Target_overlap
  | Condition_overlap
  | Condition_infeasible of { c_src : int; c_dst : int; want : bool }

let reason_label = function
  | Disabled -> "disabled"
  | Unsound_join _ | Cyclic_cone _ -> "unsound_join"
  | Target_overlap -> "target_overlap"
  | Condition_overlap -> "condition_overlap"
  | Condition_infeasible _ -> "condition_infeasible"

let describe = function
  | Disabled -> "planner disabled"
  | Unsound_join { node } ->
    Printf.sprintf
      "routes to the sink fork at node %d and meet again: parent flows \
       share ancestry"
      node
  | Cyclic_cone { node } ->
    Printf.sprintf
      "the cone holds a cycle through node %d, so routes to the sink meet \
       again: parent flows share ancestry"
      node
  | Target_overlap -> "target cones share edges"
  | Condition_overlap -> "condition cone overlaps the query or another condition"
  | Condition_infeasible { c_src; c_dst; want } ->
    Printf.sprintf "condition %d:%d:%c has probability %c" c_src c_dst
      (if want then '+' else '-')
      (if want then '0' else '1')

(* every reason is pre-registered so the exposition shows a zero series
   per label from the first scrape *)
let m_exact_hits =
  Metrics.counter ~help:"Queries answered in closed form by the planner"
    "iflow_plan_exact_hits_total"

let fallback_counter label =
  Metrics.counter
    ~labels:[ ("reason", label) ]
    ~help:"Planner refusals, by reason (sampled, or a bad query when infeasible)"
    "iflow_plan_fallbacks_total"

let fallback_counters =
  List.map
    (fun label -> (label, fallback_counter label))
    [
      "disabled"; "unsound_join"; "target_overlap"; "condition_overlap";
      "condition_infeasible";
    ]

let m_index_refusals =
  Metrics.counter
    ~help:"Targets refused by the cycle index without tracing their cone"
    "iflow_plan_index_refusals_total"

let record_exact () = Metrics.inc m_exact_hits

let record_fallback r =
  Metrics.inc (List.assoc (reason_label r) fallback_counters)

type target_plan = {
  t_src : int;
  t_dst : int;
  cone_nodes : int;
  cone_edges : int;
  probability : float;
  path : int list option; (* model node ids, src first, for path cones *)
}

type exact = {
  value : float;
  cone_nodes : int; (* summed over evaluated targets *)
  cone_edges : int;
  work : int;
  targets : target_plan list;
  dropped_conditions : int; (* vacuous negative conditions ignored *)
}

exception Stop of reason

(* Scratch for one plan at a time: the cone, and the edge-disjointness
   ledger across every cone the plan relies on. An entry claimed by the
   current plan holds [2 * stamp + kind], with kind 0 for a condition's
   cone and 1 for a target's, so a new plan clears it by bumping
   [stamp]. Only live cone edges carry dependence; a deterministic
   0-probability edge shared between cones is harmless. *)
type scratch = {
  cone : Cone.t;
  ledger : int array;
  mutable stamp : int;
  ws : Reach.workspace Lazy.t; (* for negative conditions *)
}

type claim = Claim_condition | Claim_target

let claim sc kind cone =
  let mine = 2 * sc.stamp and target = kind = Claim_target in
  Cone.iter_edges cone (fun e ->
      let entry = sc.ledger.(e) in
      if entry = mine || entry = mine + 1 then
        raise
          (Stop
             (if target && entry = mine + 1 then Target_overlap
              else Condition_overlap));
      sc.ledger.(e) <- (if target then mine + 1 else mine))

(* One scratch per domain, kept across plans and rebuilt only when the
   model's node or edge count changes. *)
let slot = Domain_slot.create ()

let take_scratch icm =
  let n = Icm.n_nodes icm and m = Icm.n_edges icm in
  match Domain_slot.take slot with
  | Some sc when Array.length sc.ledger = m && Cone.n_nodes sc.cone = n ->
    Cone.rebind sc.cone icm;
    sc.stamp <- sc.stamp + 1;
    sc
  | _ ->
    let ws = lazy (Reach.workspace n) in
    { cone = Cone.create icm; ledger = Array.make m 0; stamp = 1; ws }

(* The refusal index of the model that last had a target refused,
   shared read-only by every domain. A model's first trace refusal only
   records the model: it may be its last, and the first request a server
   answers should not pay for a build. The second builds the index with
   one cycle, and each later trace refusal it missed adds the next one.
   Of two domains building at once, one build is dropped. *)
type index = No_index | Refused_once of Icm.t | Index of Cycle_index.t

let index = Atomic.make No_index

let built icm =
  match Atomic.get index with
  | Index ix when Cycle_index.icm ix == icm -> Some ix
  | _ -> None

let grow_index icm =
  let current = Atomic.get index in
  let build f =
    let t0 = Clock.now_ns () in
    let ix = f () in
    ignore
      (Trace.phase
         ~args:[ ("cycles", Trace.Int (Cycle_index.cycles ix)) ]
         "plan.index_build" ~t0);
    ignore (Atomic.compare_and_set index current (Index ix))
  in
  match current with
  | Index ix when Cycle_index.icm ix == icm ->
    if not (Cycle_index.complete ix) then build (fun () -> Cycle_index.extend ix)
  | Refused_once m when m == icm -> build (fun () -> Cycle_index.create icm)
  | _ -> ignore (Atomic.compare_and_set index current (Refused_once icm))

(* [plan] on the scratch [sc], which [take_scratch] bound to [icm] *)
let plan_on sc icm ~targets ~conditions =
  let g = Icm.graph icm in
  let cone = sc.cone in
  let work0 = Cone.work cone in
  try
    (* conditions first: their joint feasibility must hold even when
       the target product collapses to 0 (MH raises on infeasible
       conditions, and an exact 0 must not mask that) *)
    let dropped = ref 0 in
    List.iter
      (fun (u, v, want) ->
        if u = v then begin
          if want then incr dropped (* u ~> u is certain *)
          else raise (Stop (Condition_infeasible { c_src = u; c_dst = v; want }))
        end
        else
          match Cone.trace cone ~certify:false ~src:u ~dst:v with
          | Cone.Unreachable ->
            if want then
              raise (Stop (Condition_infeasible { c_src = u; c_dst = v; want }))
            else incr dropped (* the flow is impossible: certainly absent *)
          | Cone.Fork _ | Cone.Traced _ ->
            if not want then begin
              (* certainly-present flow (an all-probability-1 path)
                 makes a negative condition infeasible *)
              let ws = Lazy.force sc.ws in
              Reach.bfs ws ~active:(fun e -> Icm.prob icm e >= 1.0) g ~src:u;
              if Reach.marked ws v then
                raise
                  (Stop (Condition_infeasible { c_src = u; c_dst = v; want }))
            end;
            claim sc Claim_condition cone)
      conditions;
    (* targets, sequentially; the first impossible one short-circuits
       the whole conjunction to an exact 0 *)
    let reports = ref [] in
    let value = ref 1.0 in
    let total_nodes = ref 0 in
    let total_edges = ref 0 in
    let zero = ref false in
    let report t_src t_dst cone_nodes cone_edges probability path =
      reports :=
        { t_src; t_dst; cone_nodes; cone_edges; probability; path }
        :: !reports;
      total_nodes := !total_nodes + cone_nodes;
      total_edges := !total_edges + cone_edges
    in
    let ix = built icm in
    List.iter
      (fun (s, d) ->
        if not !zero then
          if s = d then report s d 1 0 1.0 (Some [ s ])
          else
            let node =
              match ix with
              | Some ix -> Cycle_index.refusal ix ~src:s ~dst:d
              | None -> -1
            in
            if node >= 0 then begin
              Metrics.inc m_index_refusals;
              raise (Stop (Cyclic_cone { node }))
            end;
            match Cone.trace cone ~certify:true ~src:s ~dst:d with
            | Cone.Unreachable ->
              zero := true;
              value := 0.0;
              report s d 0 0 0.0 None
            | Cone.Fork { node } ->
              grow_index icm;
              raise (Stop (Unsound_join { node }))
            | Cone.Traced { nodes; edges } ->
              let p, path = Cone.flow cone in
              claim sc Claim_target cone;
              value := !value *. p;
              report s d nodes edges p path)
      targets;
    Ok
      {
        value = !value;
        cone_nodes = !total_nodes;
        cone_edges = !total_edges;
        work = Cone.work cone - work0;
        targets = List.rev !reports;
        dropped_conditions = !dropped;
      }
  with Stop r -> Error r

let plan icm ~targets ~conditions =
  let n = Icm.n_nodes icm in
  let check what v =
    if v < 0 || v >= n then
      invalid_arg (Printf.sprintf "Planner.plan: %s node %d out of range" what v)
  in
  List.iter
    (fun (s, d) ->
      check "target" s;
      check "target" d)
    targets;
  List.iter
    (fun (u, v, _) ->
      check "condition" u;
      check "condition" v)
    conditions;
  if targets = [] then invalid_arg "Planner.plan: no targets";
  let sc = take_scratch icm in
  let result = plan_on sc icm ~targets ~conditions in
  Domain_slot.put slot sc;
  result
