module Digraph = Iflow_graph.Digraph
module Reach = Iflow_graph.Reach
module Icm = Iflow_core.Icm
module Metrics = Iflow_obs.Metrics

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
   Anything else falls back to MH with a counted reason; the planner
   never approximates. *)

type reason =
  | Disabled
  | Unsound_join of { node : int } (* model node id of the fork *)
  | Target_overlap
  | Condition_overlap
  | Condition_infeasible of { c_src : int; c_dst : int; want : bool }

let reason_label = function
  | Disabled -> "disabled"
  | Unsound_join _ -> "unsound_join"
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
    ~help:"Planner fallbacks to the MH sampler, by reason"
    "iflow_plan_fallbacks_total"

let fallback_counters =
  List.map
    (fun label -> (label, fallback_counter label))
    [
      "disabled"; "unsound_join"; "target_overlap"; "condition_overlap";
      "condition_infeasible";
    ]

let m_validations =
  Metrics.counter ~help:"Exact answers cross-checked against a full MH run"
    "iflow_plan_validations_total"

let m_disagreements =
  Metrics.counter
    ~help:"Cross-checks where exact and MH disagreed beyond tolerance"
    "iflow_plan_validate_disagreements_total"

let record_exact () = Metrics.inc m_exact_hits

let record_fallback r =
  Metrics.inc (List.assoc (reason_label r) fallback_counters)

let record_validation ~agreed =
  Metrics.inc m_validations;
  if not agreed then Metrics.inc m_disagreements

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

(* Edge-disjointness ledger across every cone the plan relies on. Only
   live cone edges carry dependence; a deterministic 0-probability edge
   shared between cones is harmless. *)
type claim = Claim_condition | Claim_target

let claim ledger kind cone =
  Cone.iter_edges cone (fun e ->
      (match ledger.(e) with
      | None -> ()
      | Some Claim_condition -> raise (Stop Condition_overlap)
      | Some Claim_target ->
        raise
          (Stop
             (match kind with
             | Claim_condition -> Condition_overlap
             | Claim_target -> Target_overlap)));
      ledger.(e) <- Some kind)

let plan icm ~targets ~conditions =
  let g = Icm.graph icm in
  let n = Digraph.n_nodes g in
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
  let ledger = Array.make (Digraph.n_edges g) None in
  let cone = Cone.create icm in
  let ws = lazy (Reach.workspace n) in
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
              let ws = Lazy.force ws in
              Reach.bfs ws ~active:(fun e -> Icm.prob icm e >= 1.0) g ~src:u;
              if Reach.marked ws v then
                raise
                  (Stop (Condition_infeasible { c_src = u; c_dst = v; want }))
            end;
            claim ledger Claim_condition cone)
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
    List.iter
      (fun (s, d) ->
        if not !zero then
          if s = d then report s d 1 0 1.0 (Some [ s ])
          else
            match Cone.trace cone ~certify:true ~src:s ~dst:d with
            | Cone.Unreachable ->
              zero := true;
              value := 0.0;
              report s d 0 0 0.0 None
            | Cone.Fork { node } -> raise (Stop (Unsound_join { node }))
            | Cone.Traced { nodes; edges } ->
              let p, path = Cone.flow cone in
              claim ledger Claim_target cone;
              value := !value *. p;
              report s d nodes edges p path)
      targets;
    Ok
      {
        value = !value;
        cone_nodes = !total_nodes;
        cone_edges = !total_edges;
        work = Cone.work cone;
        targets = List.rev !reports;
        dropped_conditions = !dropped;
      }
  with Stop r -> Error r
