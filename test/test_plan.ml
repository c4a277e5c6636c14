(* Tests for the exact-oracle query planner (lib/plan): the trimmed
   cone, the out-degree certificate, the one-sweep Eq. 2 evaluation,
   and the engine routing built on them. The contract under
   test: the planner answers exactly or refuses — it never
   approximates — and whatever it answers agrees with brute-force
   pseudo-state enumeration. *)

module Icm = Iflow_core.Icm
module Exact = Iflow_core.Exact
module Digraph = Iflow_graph.Digraph
module Gen = Iflow_graph.Gen
module Rng = Iflow_stats.Rng
module Cone = Iflow_plan.Cone
module Planner = Iflow_plan.Planner
module Engine = Iflow_engine.Engine
module Query = Iflow_engine.Query
module Metrics = Iflow_obs.Metrics

let check_close ?(eps = 1e-12) msg expected actual =
  Alcotest.(check (float eps)) msg expected actual

let icm_of ~nodes edges probs =
  Icm.create (Digraph.of_edges ~nodes edges) (Array.of_list probs)

let plan icm ~targets ~conditions = Planner.plan icm ~targets ~conditions

let value_exn = function
  | Ok (e : Planner.exact) -> e
  | Error r -> Alcotest.failf "expected exact plan, got fallback %s"
                 (Planner.reason_label r)

let reason_exn = function
  | Ok (_ : Planner.exact) -> Alcotest.fail "expected a fallback, got exact"
  | Error r -> r

(* ---------- scratch reuse ---------- *)

(* Words one [plan] call allocates, minor plus major, on a model whose
   first five nodes hold the bottleneck 0 -> 1 -> {2, 3} -> 4 and whose
   other [n - 5] nodes form an idle chain. The refused (0, 4) and the
   exact path (2, 4) trace the same cones at every [n]. *)
let plan_words ~n =
  let edges =
    [ (0, 1); (1, 2); (1, 3); (2, 4); (3, 4) ]
    @ List.init (n - 6) (fun i -> (5 + i, 6 + i))
  in
  let icm = icm_of ~nodes:n edges (List.map (fun _ -> 0.5) edges) in
  let calls () =
    ignore (reason_exn (plan icm ~targets:[ (0, 4) ] ~conditions:[]));
    check_close "path" 0.5
      (value_exn (plan icm ~targets:[ (2, 4) ] ~conditions:[])).Planner.value
  in
  calls ();
  let words () =
    let minor, promoted, major = Gc.counters () in
    minor +. major -. promoted
  in
  let w0 = words () in
  for _ = 1 to 100 do
    calls ()
  done;
  (words () -. w0) /. 100.0

(* A plan reuses its domain's scratch, so what a call allocates depends
   on the cones it traces and not on the model's size: a fresh scratch
   would cost 5n + m words. *)
let test_plan_words_independent_of_n () =
  let small = plan_words ~n:64 and large = plan_words ~n:65_536 in
  check_close "words per call pair at n = 64 and n = 65,536" small large;
  Alcotest.(check bool)
    (Printf.sprintf "%.0f words per call pair" small)
    true (small < 2_000.0)

(* The scratch follows the model it is handed: a new version with the
   same counts, and a model of another size in between, each answer as
   if planned on fresh scratch. *)
let test_plan_scratch_follows_model () =
  let edges = [ (0, 1); (1, 2) ] in
  let a = icm_of ~nodes:3 edges [ 0.5; 0.5 ]
  and b = icm_of ~nodes:3 edges [ 0.25; 1.0 ]
  and c = icm_of ~nodes:4 [ (0, 1); (1, 2); (2, 3) ] [ 0.5; 0.5; 0.5 ] in
  let value icm dst =
    (value_exn (plan icm ~targets:[ (0, dst) ] ~conditions:[])).Planner.value
  in
  check_close "a" 0.25 (value a 2);
  check_close "b, same counts" 0.25 (value b 2);
  check_close "b, one hop" 0.25 (value b 1);
  check_close "c, another size" 0.125 (value c 3);
  check_close "a again" 0.5 (value a 1);
  (* claims do not outlive their plan: the same disjoint community
     plans exact every time *)
  for _ = 1 to 3 do
    ignore (value_exn (plan c ~targets:[ (0, 1); (2, 3) ] ~conditions:[]))
  done

(* ---------- cone extraction ---------- *)

let cone_edges c =
  let es = ref [] in
  Cone.iter_edges c (fun e -> es := e :: !es);
  List.sort compare !es

let test_cone_extraction () =
  (* 0 -> 1 -> 2 -> 3 plus a distractor component 4 -> 5 and a dead-end
     1 -> 4: the (0, 3) cone must be exactly the path *)
  let icm =
    icm_of ~nodes:6
      [ (0, 1); (1, 2); (2, 3); (1, 4); (4, 5) ]
      [ 0.5; 0.5; 0.5; 0.9; 0.9 ]
  in
  let c = Cone.create icm in
  (match Cone.trace c ~certify:true ~src:0 ~dst:3 with
  | Cone.Traced { nodes; edges } ->
    Alcotest.(check int) "cone nodes" 4 nodes;
    Alcotest.(check int) "cone edges" 3 edges;
    Alcotest.(check (list int)) "cone edge ids" [ 0; 1; 2 ] (cone_edges c)
  | _ -> Alcotest.fail "reachable path not traced");
  (* unreachable: no cone *)
  Alcotest.check Alcotest.bool "unreachable" true
    (Cone.trace c ~certify:true ~src:3 ~dst:0 = Cone.Unreachable);
  (* a zero-probability edge cannot carry flow: cone ignores it *)
  let icm0 =
    icm_of ~nodes:3 [ (0, 1); (1, 2) ] [ 0.5; 0.0 ]
  in
  Alcotest.check Alcotest.bool "zero-prob edge breaks the cone" true
    (Cone.trace (Cone.create icm0) ~certify:true ~src:0 ~dst:2
    = Cone.Unreachable);
  Alcotest.check Alcotest.bool "src = dst rejected" true
    (match Cone.trace c ~certify:true ~src:1 ~dst:1 with
    | exception Invalid_argument _ -> true
    | _ -> false);
  (* trimming: edges into src and out of dst are not in the cone, so a
     cycle through either endpoint neither joins the cone nor forks it;
     a cycle strictly inside still shows up uncertified *)
  let icm =
    icm_of ~nodes:5
      [ (0, 1); (1, 2); (2, 0); (2, 3); (3, 4); (4, 1) ]
      [ 0.5; 0.5; 0.5; 0.5; 0.5; 0.5 ]
  in
  let c = Cone.create icm in
  (match Cone.trace c ~certify:true ~src:0 ~dst:2 with
  | Cone.Traced { nodes = 3; edges = 2 } ->
    Alcotest.(check (list int)) "trimmed to the path" [ 0; 1 ] (cone_edges c)
  | _ -> Alcotest.fail "cycles through src and dst not trimmed");
  let inner =
    icm_of ~nodes:4 [ (0, 1); (1, 2); (2, 3); (2, 1) ] [ 0.5; 0.5; 0.5; 0.5 ]
  in
  let c = Cone.create inner in
  (match Cone.trace c ~certify:false ~src:0 ~dst:3 with
  | Cone.Traced { nodes = 4; edges = 4 } ->
    Alcotest.(check (list int)) "inner cycle kept" [ 0; 1; 2; 3 ]
      (cone_edges c)
  | _ -> Alcotest.fail "uncertified cone with an inner cycle not traced");
  Alcotest.check Alcotest.bool "inner cycle forks" true
    (Cone.trace c ~certify:true ~src:0 ~dst:3 = Cone.Fork { node = 2 })

(* ---------- path cones: unique path, product form ---------- *)

let test_path_product () =
  let icm =
    icm_of ~nodes:4 [ (0, 1); (1, 2); (2, 3) ] [ 0.3; 0.7; 0.9 ]
  in
  let e = value_exn (plan icm ~targets:[ (0, 3) ] ~conditions:[]) in
  check_close "product of path probabilities" (0.3 *. 0.7 *. 0.9)
    e.Planner.value;
  check_close "matches Eq. 2" (Exact.flow_probability icm ~src:0 ~dst:3)
    e.Planner.value;
  match e.Planner.targets with
  | [ tp ] ->
    Alcotest.(check (option (list int))) "unique path reported"
      (Some [ 0; 1; 2; 3 ]) tp.Planner.path
  | _ -> Alcotest.fail "one target expected"

(* ---------- certified non-tree shapes match brute force ---------- *)

let diamond = [ (0, 1); (0, 2); (1, 3); (2, 3) ]

let test_diamond_exact () =
  let icm = icm_of ~nodes:4 diamond [ 0.5; 0.5; 0.5; 0.5 ] in
  let e = value_exn (plan icm ~targets:[ (0, 3) ] ~conditions:[]) in
  check_close "diamond vs brute force"
    (Exact.brute_force_flow icm ~src:0 ~dst:3)
    e.Planner.value

let test_double_diamond_exact () =
  (* two diamonds in series: the second join's parents both descend
     from node 3, which is NOT the source. Eq. 2's factors are flows
     from src, so that sharing is real and the query is refused at the
     fork, node 3 — unless it is asked from node 3 onward. *)
  let edges =
    [ (0, 1); (0, 2); (1, 3); (2, 3); (3, 4); (3, 5); (4, 6); (5, 6) ]
  in
  let icm = icm_of ~nodes:7 edges [ 0.5; 0.5; 0.5; 0.5; 0.5; 0.5; 0.5; 0.5 ] in
  (match reason_exn (plan icm ~targets:[ (0, 6) ] ~conditions:[]) with
  | Planner.Unsound_join { node } -> Alcotest.(check int) "fork" 3 node
  | r -> Alcotest.failf "wrong reason %s" (Planner.reason_label r));
  (* asked from the bottleneck itself, the second diamond is sound *)
  let e = value_exn (plan icm ~targets:[ (3, 6) ] ~conditions:[]) in
  check_close "second diamond from its own source"
    (Exact.brute_force_flow icm ~src:3 ~dst:6)
    e.Planner.value

let test_triangle_and_cycle_exact () =
  (* the paper's triangle: join at 2 shares only the source *)
  let tri = icm_of ~nodes:3 [ (0, 1); (1, 2); (0, 2) ] [ 0.6; 0.7; 0.2 ] in
  let e = value_exn (plan tri ~targets:[ (0, 2) ] ~conditions:[]) in
  check_close "triangle vs brute force"
    (Exact.brute_force_flow tri ~src:0 ~dst:2)
    e.Planner.value;
  (* a 2-cycle hanging off the path: 0 -> 1 <-> 2, dst 2 *)
  let cyc = icm_of ~nodes:3 [ (0, 1); (1, 2); (2, 1) ] [ 0.5; 0.5; 0.5 ] in
  let e = value_exn (plan cyc ~targets:[ (0, 2) ] ~conditions:[]) in
  check_close "cycle vs brute force"
    (Exact.brute_force_flow cyc ~src:0 ~dst:2)
    e.Planner.value;
  (* a diamond whose sink feeds back into one branch: the back edge
     leaves dst, so the trimmed cone is the diamond and certifies *)
  let back =
    icm_of ~nodes:4
      [ (0, 1); (0, 2); (1, 3); (2, 3); (3, 1) ]
      [ 0.6; 0.3; 0.7; 0.4; 0.9 ]
  in
  let e = value_exn (plan back ~targets:[ (0, 3) ] ~conditions:[]) in
  check_close "diamond with a back edge from dst vs brute force"
    (Exact.brute_force_flow back ~src:0 ~dst:3)
    e.Planner.value;
  (* a cycle strictly inside the cone: node 2 has live out-edges to
     both dst and node 1, so it is refused at node 2 *)
  let inner =
    icm_of ~nodes:4 [ (0, 1); (1, 2); (2, 3); (2, 1) ] [ 0.5; 0.5; 0.5; 0.5 ]
  in
  match reason_exn (plan inner ~targets:[ (0, 3) ] ~conditions:[]) with
  | Planner.Unsound_join { node } -> Alcotest.(check int) "fork" 2 node
  | r -> Alcotest.failf "wrong reason %s" (Planner.reason_label r)

(* ---------- the documented overestimate is refused ---------- *)

(* DESIGN.md's bottleneck: both parents of the sink flow through node 1,
   Eq. 2 says 0.234375 where the truth is 0.21875 *)
let bottleneck = [ (0, 1); (1, 2); (1, 3); (2, 4); (3, 4) ]

let test_bottleneck_refused () =
  let icm = icm_of ~nodes:5 bottleneck [ 0.5; 0.5; 0.5; 0.5; 0.5 ] in
  (match reason_exn (plan icm ~targets:[ (0, 4) ] ~conditions:[]) with
  | Planner.Unsound_join { node } -> Alcotest.(check int) "fork node" 1 node
  | r -> Alcotest.failf "wrong reason %s" (Planner.reason_label r));
  (* and the value Eq. 2 would have produced really is wrong *)
  let eq2 = Exact.flow_probability icm ~src:0 ~dst:4 in
  let truth = Exact.brute_force_flow icm ~src:0 ~dst:4 in
  Alcotest.check Alcotest.bool "Eq. 2 overestimates here" true
    (eq2 > truth +. 1e-6)

(* ---------- trivial targets ---------- *)

let test_trivial_targets () =
  let icm = icm_of ~nodes:4 [ (0, 1); (2, 3) ] [ 0.5; 0.5 ] in
  let e = value_exn (plan icm ~targets:[ (1, 1) ] ~conditions:[]) in
  check_close "src = dst is certainty" 1.0 e.Planner.value;
  let e = value_exn (plan icm ~targets:[ (0, 3) ] ~conditions:[]) in
  check_close "unreachable is impossibility" 0.0 e.Planner.value

(* ---------- conditions ---------- *)

let test_conditions () =
  (* target component 0 -> 1 -> 2; condition component 3 -> 4 *)
  let icm =
    icm_of ~nodes:5 [ (0, 1); (1, 2); (3, 4) ] [ 0.4; 0.6; 0.3 ]
  in
  (* independent feasible condition: cancels out of the conditional *)
  let e =
    value_exn (plan icm ~targets:[ (0, 2) ] ~conditions:[ (3, 4, true) ])
  in
  check_close "independent condition cancels"
    (Exact.brute_force_conditional icm ~conditions:[ (3, 4, true) ] ~src:0
       ~dst:2)
    e.Planner.value;
  (* vacuous negative condition (on an impossible flow): dropped *)
  let e =
    value_exn (plan icm ~targets:[ (0, 2) ] ~conditions:[ (4, 3, false) ])
  in
  Alcotest.(check int) "vacuous negative dropped" 1
    e.Planner.dropped_conditions;
  check_close "value unchanged" (0.4 *. 0.6) e.Planner.value;
  (* infeasible positive condition: impossible flow demanded *)
  (match
     reason_exn (plan icm ~targets:[ (0, 2) ] ~conditions:[ (4, 3, true) ])
   with
  | Planner.Condition_infeasible { c_src = 4; c_dst = 3; want = true } -> ()
  | r -> Alcotest.failf "wrong reason %s" (Planner.reason_label r));
  (* infeasible negative condition: a certain flow denied *)
  let certain =
    icm_of ~nodes:5 [ (0, 1); (1, 2); (3, 4) ] [ 0.4; 0.6; 1.0 ]
  in
  (match
     reason_exn
       (plan certain ~targets:[ (0, 2) ] ~conditions:[ (3, 4, false) ])
   with
  | Planner.Condition_infeasible { want = false; _ } -> ()
  | r -> Alcotest.failf "wrong reason %s" (Planner.reason_label r));
  (* condition sharing an edge with the target cone: refused *)
  match
    reason_exn (plan icm ~targets:[ (0, 2) ] ~conditions:[ (0, 1, true) ])
  with
  | Planner.Condition_overlap -> ()
  | r -> Alcotest.failf "wrong reason %s" (Planner.reason_label r)

(* ---------- community / joint products ---------- *)

let test_community_product () =
  let icm = icm_of ~nodes:3 [ (0, 1); (0, 2) ] [ 0.35; 0.8 ] in
  let e =
    value_exn (plan icm ~targets:[ (0, 1); (0, 2) ] ~conditions:[])
  in
  check_close "star community vs brute force"
    (Exact.brute_force_community icm ~src:0 ~sinks:[ 1; 2 ])
    e.Planner.value

let test_target_overlap_refused () =
  let icm = icm_of ~nodes:3 [ (0, 1); (1, 2) ] [ 0.5; 0.5 ] in
  match reason_exn (plan icm ~targets:[ (0, 2); (1, 2) ] ~conditions:[]) with
  | Planner.Target_overlap -> ()
  | r -> Alcotest.failf "wrong reason %s" (Planner.reason_label r)

(* ---------- properties ---------- *)

let random_tree_icm rng ~nodes =
  let edges = ref [] and probs = ref [] in
  for v = 1 to nodes - 1 do
    let parent = Rng.int rng v in
    edges := (parent, v) :: !edges;
    probs := (0.1 +. (0.85 *. Rng.uniform rng)) :: !probs
  done;
  icm_of ~nodes (List.rev !edges) (List.rev !probs)

let prop_trees_exact =
  QCheck.Test.make ~count:100 ~name:"random trees certify and match truth"
    QCheck.(pair (int_range 2 12) (int_range 0 10_000))
    (fun (nodes, seed) ->
      let rng = Rng.create seed in
      let icm = random_tree_icm rng ~nodes in
      let dst = 1 + Rng.int rng (nodes - 1) in
      let e = value_exn (plan icm ~targets:[ (0, dst) ] ~conditions:[]) in
      Float.abs (e.Planner.value -. Exact.brute_force_flow icm ~src:0 ~dst)
      <= 1e-12)

let prop_certified_matches_brute_force =
  (* arbitrary dense digraphs: whenever the planner certifies, the
     answer must equal enumeration; refusals just skip *)
  QCheck.Test.make ~count:100 ~name:"certified answers equal enumeration"
    QCheck.(triple (int_range 3 7) (int_range 3 16) (int_range 0 10_000))
    (fun (nodes, edges, seed) ->
      (* qcheck shrinking can step outside int_range: clamp *)
      let nodes = max 2 nodes and edges = max 1 edges in
      let edges = min edges (nodes * (nodes - 1)) in
      let rng = Rng.create seed in
      let g = Gen.gnm rng ~nodes ~edges in
      let icm =
        Icm.create g
          (Array.init edges (fun _ -> 0.05 +. (0.9 *. Rng.uniform rng)))
      in
      let dst = 1 + Rng.int rng (nodes - 1) in
      match plan icm ~targets:[ (0, dst) ] ~conditions:[] with
      | Error _ -> true
      | Ok e ->
        Float.abs (e.Planner.value -. Exact.brute_force_flow icm ~src:0 ~dst)
        <= 1e-9)

(* The definition-level certificate, written out independently of the
   planner: in the cone (descendants of src that are ancestors of dst,
   over live edges), at every join k <> src the ancestor sets of k's
   parents, each including the parent itself, meet at most in {src}. *)
let reference_certified icm ~src ~dst =
  let g = Icm.graph icm in
  let n = Digraph.n_nodes g in
  let live e = Icm.prob icm e > 0.0 in
  let closure ~step start keep =
    let seen = Array.make n false in
    let rec go v =
      if (not seen.(v)) && keep v then begin
        seen.(v) <- true;
        List.iter go (step v)
      end
    in
    go start;
    seen
  in
  let succs v =
    List.filter_map
      (fun e -> if live e then Some (Digraph.edge_dst g e) else None)
      (Digraph.out_edges g v)
  in
  let preds v =
    List.filter_map
      (fun e -> if live e then Some (Digraph.edge_src g e) else None)
      (Digraph.in_edges g v)
  in
  let desc = closure ~step:succs src (fun _ -> true) in
  let anc = closure ~step:preds dst (fun _ -> true) in
  let in_cone v = desc.(v) && anc.(v) in
  let cone_anc v = closure ~step:preds v in_cone in
  List.for_all
    (fun k ->
      let parents = List.filter in_cone (preds k) in
      k = src || (not (in_cone k))
      || List.for_all
           (fun p ->
             List.for_all
               (fun q ->
                 p >= q
                 ||
                 let ap = cone_anc p and aq = cone_anc q in
                 List.for_all
                   (fun w -> w = src || not (ap.(w) && aq.(w)))
                   (List.init n Fun.id))
               parents)
           parents)
    (List.init n Fun.id)

let prop_dag_verdicts_match_reference =
  (* gnm edges oriented low -> high id, some of them dead: on DAG cones
     the out-degree certificate must give the definition's verdict *)
  QCheck.Test.make ~count:500 ~name:"DAG verdicts equal the ancestor-set rule"
    QCheck.(triple (int_range 3 10) (int_range 2 30) (int_range 0 100_000))
    (fun (nodes, edges, seed) ->
      let nodes = max 3 nodes and edges = max 1 edges in
      let edges = min edges (nodes * (nodes - 1)) in
      let rng = Rng.create seed in
      let pairs =
        List.sort_uniq compare
          (List.map
             (fun (u, v) -> (min u v, max u v))
             (Digraph.edges (Gen.gnm rng ~nodes ~edges)))
      in
      let probs =
        List.map
          (fun _ ->
            if Rng.int rng 6 = 0 then 0.0 else 0.05 +. (0.9 *. Rng.uniform rng))
          pairs
      in
      let icm = icm_of ~nodes pairs probs in
      let src = Rng.int rng (nodes - 1) in
      let dst = src + 1 + Rng.int rng (nodes - 1 - src) in
      let certified =
        match plan icm ~targets:[ (src, dst) ] ~conditions:[] with
        | Ok e ->
          (* and on a certified cone Eq. 2 is exact *)
          Float.abs (e.Planner.value -. Exact.flow_probability icm ~src ~dst)
          <= 1e-12
          || QCheck.Test.fail_reportf "value %h off Eq. 2" e.Planner.value
        | Error (Planner.Unsound_join _) -> false
        | Error r -> QCheck.Test.fail_reportf "reason %s" (Planner.reason_label r)
      in
      certified = reference_certified icm ~src ~dst)

let prop_shared_bottleneck_refused =
  (* 0 -> 1 fans out to b branches that reconverge on the sink: every
     pair of sink parents shares node 1, so certification must fail *)
  QCheck.Test.make ~count:50 ~name:"shared bottlenecks always refused"
    QCheck.(pair (int_range 2 6) (int_range 0 10_000))
    (fun (branches, seed) ->
      let rng = Rng.create seed in
      let sink = branches + 2 in
      let edges =
        (0, 1)
        :: List.concat
             (List.init branches (fun i ->
                  [ (1, 2 + i); (2 + i, sink) ]))
      in
      let probs =
        List.map (fun _ -> 0.1 +. (0.85 *. Rng.uniform rng)) edges
      in
      let icm = icm_of ~nodes:(sink + 1) edges probs in
      match plan icm ~targets:[ (0, sink) ] ~conditions:[] with
      | Error (Planner.Unsound_join _) -> true
      | _ -> false)

(* ---------- engine routing ---------- *)

let fast_config =
  {
    Engine.default_config with
    Engine.chains = 2;
    domains = Some 1;
    burn_in = 100;
    thin = 2;
    round_samples = 100;
    max_samples = 2000;
    rhat_target = 1.2;
    mcse_target = 0.05;
  }

let test_engine_routes_exact () =
  let icm = icm_of ~nodes:3 [ (0, 1); (1, 2) ] [ 0.5; 0.5 ] in
  let engine = Engine.create ~config:fast_config ~seed:7 icm in
  let r = Engine.query engine (Query.flow ~src:0 ~dst:2 ()) in
  check_close "exact value" 0.25 r.Engine.estimate;
  (match r.Engine.plan with
  | Engine.Plan_exact { cone_nodes } ->
    Alcotest.(check int) "cone size" 3 cone_nodes
  | Engine.Plan_mh _ -> Alcotest.fail "path query was not planned exact");
  check_close "all diagnostics finite and trivial" 1.0 r.Engine.rhat;
  Alcotest.(check int) "no samples drawn" 0 r.Engine.total_samples;
  Alcotest.(check int) "no chains used" 0 r.Engine.chains_used;
  (* exact answers are cached like sampled ones *)
  let r2 = Engine.query engine (Query.flow ~src:0 ~dst:2 ()) in
  Alcotest.(check bool) "second ask cached" true r2.Engine.cached;
  check_close "cached value identical" r.Engine.estimate r2.Engine.estimate

let test_engine_fallback_tagged () =
  let icm = icm_of ~nodes:5 bottleneck [ 0.5; 0.5; 0.5; 0.5; 0.5 ] in
  let engine = Engine.create ~config:fast_config ~seed:7 icm in
  let r = Engine.query engine (Query.flow ~src:0 ~dst:4 ()) in
  (match r.Engine.plan with
  | Engine.Plan_mh { fallback = Some "unsound_join"; sampler = Engine.Direct } -> ()
  | Engine.Plan_mh { fallback; sampler } ->
    Alcotest.failf "wrong plan %s (fallback %s)" (Engine.sampler_label sampler)
      (Option.value fallback ~default:"<none>")
  | Engine.Plan_exact _ -> Alcotest.fail "bottleneck answered exactly");
  Alcotest.(check bool) "sampled" true (r.Engine.total_samples > 0)

let test_engine_mh_bit_identical () =
  (* on a conditioned query the planner refuses, answers must be
     bit-for-bit what a planner-less engine produces (unconditioned
     refusals go to the cascade sampler instead) *)
  let icm = icm_of ~nodes:5 bottleneck [ 0.5; 0.5; 0.5; 0.5; 0.5 ] in
  let q = Query.flow ~conditions:[ (0, 2, true) ] ~src:0 ~dst:4 () in
  let on = Engine.query (Engine.create ~config:fast_config ~seed:7 icm) q in
  let off =
    Engine.query
      (Engine.create
         ~config:{ fast_config with Engine.planner = false }
         ~seed:7 icm)
      q
  in
  Alcotest.(check bool) "estimate bits" true
    (Int64.equal
       (Int64.bits_of_float on.Engine.estimate)
       (Int64.bits_of_float off.Engine.estimate));
  Alcotest.(check int) "samples" on.Engine.total_samples
    off.Engine.total_samples;
  (match on.Engine.plan with
  | Engine.Plan_mh { fallback = Some "unsound_join"; sampler = Engine.Mh } -> ()
  | _ -> Alcotest.fail "refused conditioned query not sampled by MH");
  match off.Engine.plan with
  | Engine.Plan_mh { fallback = Some "disabled"; sampler = Engine.Mh } -> ()
  | _ -> Alcotest.fail "planner-off engine not tagged disabled"

(* [Engine.route], which `infoflow explain` prints, is the decision
   [Engine.query] acts on *)
let test_engine_route_agrees () =
  let icm = icm_of ~nodes:5 bottleneck [ 0.5; 0.5; 0.5; 0.5; 0.5 ] in
  let off = { fast_config with Engine.planner = false } in
  let flow ?conditions src dst = Query.flow ?conditions ~src ~dst () in
  List.iter
    (fun (config, q) ->
      let asked =
        match Engine.query (Engine.create ~config ~seed:7 icm) q with
        | r -> Some r.Engine.plan
        | exception Invalid_argument _ -> None
      in
      match (Engine.route config icm q, asked) with
      | Engine.Exact e, Some (Engine.Plan_exact { cone_nodes }) ->
        Alcotest.(check int) "cone" e.Planner.cone_nodes cone_nodes
      | Engine.Sample { sampler; reason }, Some (Engine.Plan_mh p) ->
        Alcotest.(check bool) (Query.key q) true
          (sampler = p.sampler
          && p.fallback = Some (Planner.reason_label reason))
      | Engine.Bad_query _, None -> ()
      | exception Invalid_argument _ when asked = None -> ()
      | _ -> Alcotest.failf "route and query disagree on %s" (Query.key q))
    [
      (fast_config, flow 0 1);
      (fast_config, flow 0 4);
      (fast_config, flow ~conditions:[ (0, 2, true) ] 0 4);
      (fast_config, flow ~conditions:[ (4, 0, true) ] 0 4);
      (fast_config, flow 0 9);
      (off, flow 0 1);
      (off, flow 0 9);
    ]

let test_engine_counters () =
  let hits = Metrics.counter "iflow_plan_exact_hits_total" in
  let falls =
    Metrics.counter
      ~labels:[ ("reason", "unsound_join") ]
      "iflow_plan_fallbacks_total"
  in
  let h0 = Metrics.counter_value hits and f0 = Metrics.counter_value falls in
  let path = icm_of ~nodes:3 [ (0, 1); (1, 2) ] [ 0.5; 0.5 ] in
  let engine = Engine.create ~config:fast_config ~seed:7 path in
  ignore (Engine.query engine (Query.flow ~src:0 ~dst:2 ()));
  let bn = icm_of ~nodes:5 bottleneck [ 0.5; 0.5; 0.5; 0.5; 0.5 ] in
  let engine = Engine.create ~config:fast_config ~seed:7 bn in
  ignore (Engine.query engine (Query.flow ~src:0 ~dst:4 ()));
  Alcotest.(check int) "exact hit counted" (h0 + 1) (Metrics.counter_value hits);
  Alcotest.(check int) "fallback counted" (f0 + 1) (Metrics.counter_value falls)

(* the headline scale case: a 6000-node tree answers exactly and agrees
   with MH on the same engine seed within the sampler's own error bar *)
let test_engine_large_tree () =
  let nodes = 6000 in
  let rng = Rng.create 9 in
  let icm = random_tree_icm rng ~nodes in
  (* pick a node three levels deep so the MH estimate is comfortably
     away from 0 and converges quickly *)
  let child_of v =
    let g = Icm.graph icm in
    let c = ref None in
    Digraph.iter_out g v (fun e ->
        if !c = None then c := Some (Digraph.edge_dst g e));
    !c
  in
  let dst =
    match Option.bind (child_of 0) child_of with
    | Some v -> v
    | None -> 1
  in
  let q = Query.flow ~src:0 ~dst () in
  let exact =
    Engine.query (Engine.create ~config:fast_config ~seed:7 icm) q
  in
  (match exact.Engine.plan with
  | Engine.Plan_exact _ -> ()
  | Engine.Plan_mh _ -> Alcotest.fail "6000-node tree cone not planned exact");
  (* every flow query on a tree is exact-eligible: sinks spread over the
     whole tree must all plan exact *)
  let engine = Engine.create ~config:fast_config ~seed:7 icm in
  for k = 1 to 100 do
    let dst = k * (nodes - 1) / 100 in
    match (Engine.query engine (Query.flow ~src:0 ~dst ())).Engine.plan with
    | Engine.Plan_exact _ -> ()
    | Engine.Plan_mh _ ->
      Alcotest.failf "tree query 0 ~> %d not planned exact" dst
  done;
  (* the sampler needs thinning on the order of the edge count: a
     proposal touches one edge in 6000, so the two path coins decohere
     only every few thousand steps *)
  let mh_config =
    {
      fast_config with
      Engine.planner = false;
      burn_in = 30_000;
      thin = 3_000;
      round_samples = 100;
      max_samples = 600;
      mcse_target = 0.005;
    }
  in
  let mh = Engine.query (Engine.create ~config:mh_config ~seed:7 icm) q in
  let tol = (5.0 *. mh.Engine.mcse) +. 1e-9 in
  Alcotest.(check bool)
    (Printf.sprintf "exact %.5f within %.5f of MH %.5f" exact.Engine.estimate
       tol mh.Engine.estimate)
    true
    (Float.abs (exact.Engine.estimate -. mh.Engine.estimate) <= tol)

let props tests =
  List.map (QCheck_alcotest.to_alcotest ~rand:(Random.State.make [| 0 |])) tests

let () =
  Alcotest.run "iflow_plan"
    [
      ( "cone",
        [
          Alcotest.test_case "extraction" `Quick test_cone_extraction;
          Alcotest.test_case "path product" `Quick test_path_product;
          Alcotest.test_case "plan words independent of n" `Quick
            test_plan_words_independent_of_n;
          Alcotest.test_case "scratch follows the model" `Quick
            test_plan_scratch_follows_model;
        ] );
      ( "soundness",
        [
          Alcotest.test_case "diamond exact" `Quick test_diamond_exact;
          Alcotest.test_case "double diamond" `Quick test_double_diamond_exact;
          Alcotest.test_case "triangle and cycle" `Quick
            test_triangle_and_cycle_exact;
          Alcotest.test_case "bottleneck refused" `Quick
            test_bottleneck_refused;
          Alcotest.test_case "trivial targets" `Quick test_trivial_targets;
        ] );
      ( "queries",
        [
          Alcotest.test_case "conditions" `Quick test_conditions;
          Alcotest.test_case "community product" `Quick test_community_product;
          Alcotest.test_case "target overlap" `Quick
            test_target_overlap_refused;
        ] );
      ( "properties",
        props
          [
            prop_trees_exact;
            prop_certified_matches_brute_force;
            prop_dag_verdicts_match_reference;
            prop_shared_bottleneck_refused;
          ] );
      ( "engine",
        [
          Alcotest.test_case "routes exact" `Quick test_engine_routes_exact;
          Alcotest.test_case "route agrees with query" `Quick
            test_engine_route_agrees;
          Alcotest.test_case "fallback tagged" `Slow
            test_engine_fallback_tagged;
          Alcotest.test_case "mh bit-identical" `Slow
            test_engine_mh_bit_identical;
          Alcotest.test_case "counters" `Slow test_engine_counters;
          Alcotest.test_case "6000-node tree" `Slow test_engine_large_tree;
        ] );
    ]
