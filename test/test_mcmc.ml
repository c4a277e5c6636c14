open Iflow_core
open Iflow_mcmc
module Digraph = Iflow_graph.Digraph
module Gen = Iflow_graph.Gen
module Rng = Iflow_stats.Rng
module Descriptive = Iflow_stats.Descriptive

let check_close ?(eps = 1e-9) msg expected actual =
  Alcotest.(check (float eps)) msg expected actual

let triangle p12 p13 p23 =
  let g = Digraph.of_edges ~nodes:3 [ (0, 1); (0, 2); (1, 2) ] in
  Icm.create g [| p12; p13; p23 |]

let small_random_icm seed ~nodes ~edges =
  let rng = Rng.create seed in
  let g = Gen.gnm rng ~nodes ~edges in
  (* keep probabilities away from 0/1 so chains mix quickly *)
  Icm.create g (Array.init edges (fun _ -> 0.1 +. (0.8 *. Rng.uniform rng)))

let test_config = { Estimator.burn_in = 2000; thin = 10; samples = 6000 }

(* ---------- Conditions ---------- *)

let test_conditions_basics () =
  let c = Conditions.v [ (0, 2, true); (1, 2, false) ] in
  Alcotest.(check int) "length" 2 (Conditions.length c);
  Alcotest.(check (list int)) "sources" [ 0; 1 ] (Conditions.sources c);
  Alcotest.(check bool) "empty" true (Conditions.is_empty Conditions.empty);
  Alcotest.check_raises "contradiction"
    (Invalid_argument "Conditions.v: contradictory conditions on 0 ~> 2")
    (fun () -> ignore (Conditions.v [ (0, 2, true); (0, 2, false) ]))

let test_conditions_satisfied () =
  let icm = triangle 1.0 0.0 1.0 in
  let s = Pseudo_state.create 3 in
  Pseudo_state.set s 0 true;
  Pseudo_state.set s 2 true;
  Alcotest.(check bool) "positive held" true
    (Conditions.satisfied icm s (Conditions.v [ (0, 2, true) ]));
  Alcotest.(check bool) "negative violated" false
    (Conditions.satisfied icm s (Conditions.v [ (0, 2, false) ]));
  Alcotest.(check bool) "mixed" true
    (Conditions.satisfied icm s (Conditions.v [ (0, 1, true); (2, 0, false) ]))

let test_conditions_initial_state () =
  let icm = triangle 0.5 0.5 0.5 in
  let rng = Rng.create 21 in
  let c = Conditions.v [ (0, 2, true); (0, 1, false) ] in
  (match Conditions.initial_state rng icm c with
  | None -> Alcotest.fail "feasible conditions unsatisfied"
  | Some s ->
    Alcotest.(check bool) "satisfies" true (Conditions.satisfied icm s c));
  (* infeasible: no edge or path 2 -> 0 exists in the triangle *)
  let impossible = Conditions.v [ (2, 0, true) ] in
  Alcotest.(check bool) "infeasible detected" true
    (Conditions.initial_state rng icm impossible = None)

let test_conditions_initial_state_respects_determinism () =
  (* edges with p = 0 must stay inactive even while repairing *)
  let icm = triangle 0.0 0.5 0.5 in
  let rng = Rng.create 22 in
  let c = Conditions.v [ (0, 1, true) ] in
  (* only route to 1 is edge 0, which has probability 0: infeasible *)
  Alcotest.(check bool) "zero-prob path unusable" true
    (Conditions.initial_state rng icm c = None)

(* ---------- Chain mechanics ---------- *)

let test_chain_normaliser_consistency () =
  let icm = small_random_icm 31 ~nodes:10 ~edges:30 in
  let rng = Rng.create 32 in
  let chain = Chain.create rng icm in
  Chain.advance rng chain 5000;
  let state = Chain.state chain in
  let z = ref 0.0 in
  for e = 0 to 29 do
    let p = Icm.prob icm e in
    z := !z +. (if Pseudo_state.get state e then 1.0 -. p else p)
  done;
  check_close ~eps:1e-6 "normaliser tracked" !z (Chain.normaliser chain)

let test_chain_respects_impossible_edges () =
  let icm = triangle 0.0 1.0 0.5 in
  let rng = Rng.create 33 in
  let chain = Chain.create rng icm in
  Chain.advance rng chain 2000;
  let s = Chain.state chain in
  Alcotest.(check bool) "p=0 edge never active" false (Pseudo_state.get s 0);
  Alcotest.(check bool) "p=1 edge always active" true (Pseudo_state.get s 1)

let test_chain_acceptance_reported () =
  let icm = small_random_icm 34 ~nodes:8 ~edges:20 in
  let rng = Rng.create 35 in
  let chain = Chain.create rng icm in
  Chain.advance rng chain 1000;
  Alcotest.(check int) "steps" 1000 (Chain.steps_taken chain);
  let rate = Chain.acceptance_rate chain in
  Alcotest.(check bool) "acceptance sane" true (rate > 0.2 && rate <= 1.0)

(* A step draws, flips and checks in preallocated state: after a
   warm-up, 20,000 steps allocate no word, with and without a
   condition (whose reach cache grows and rebuilds on the way). *)
let test_chain_step_allocates_nothing () =
  let rng = Rng.create 77 in
  let nodes = 2000 and edges = 4000 in
  let g = Gen.gnm rng ~nodes ~edges in
  let icm =
    Icm.create g (Array.init edges (fun _ -> 0.05 +. (0.5 *. Rng.uniform rng)))
  in
  let reach = Iflow_graph.Traverse.reachable_from g [ 0 ] in
  let dst = ref (-1) in
  Array.iteri (fun v r -> if r && v <> 0 && !dst < 0 then dst := v) reach;
  Alcotest.(check bool) "model has a reachable pair" true (!dst >= 0);
  let words_per_run ?conditions seed =
    let rng = Rng.create seed in
    let chain = Chain.create ?conditions rng icm in
    for _ = 1 to 2000 do
      Chain.step rng chain
    done;
    let w0 = Gc.minor_words () in
    for _ = 1 to 20_000 do
      Chain.step rng chain
    done;
    Gc.minor_words () -. w0
  in
  check_close "unconditioned" 0.0 (words_per_run 78);
  check_close "one positive condition" 0.0
    (words_per_run ~conditions:(Conditions.v [ (0, !dst, true) ]) 79)

let test_chain_init_validation () =
  let icm = triangle 0.5 0.5 0.5 in
  let rng = Rng.create 36 in
  let bad = Pseudo_state.create 2 in
  Alcotest.check_raises "size" (Invalid_argument "Chain.create: init size mismatch")
    (fun () -> ignore (Chain.create ~init:bad rng icm));
  let violating = Pseudo_state.create 3 in
  Alcotest.check_raises "conditions"
    (Invalid_argument "Chain.create: init violates conditions") (fun () ->
      ignore
        (Chain.create
           ~conditions:(Conditions.v [ (0, 1, true) ])
           ~init:violating rng icm))

(* The chain's stationary edge-activation frequencies must match the
   independent Bernoulli marginals of Equation 3. *)
let test_chain_stationary_marginals () =
  let icm = triangle 0.2 0.7 0.5 in
  let rng = Rng.create 37 in
  let counts = Array.make 3 0 in
  let n = 20000 in
  let () =
    Estimator.fold_samples rng icm
      { Estimator.burn_in = 1000; thin = 5; samples = n }
      ~init:()
      ~f:(fun () s ->
        for e = 0 to 2 do
          if Pseudo_state.get s e then counts.(e) <- counts.(e) + 1
        done)
  in
  Array.iteri
    (fun e c ->
      check_close ~eps:0.02
        (Printf.sprintf "edge %d marginal" e)
        (Icm.prob icm e)
        (float_of_int c /. float_of_int n))
    counts

(* ---------- Estimators vs brute force ---------- *)

let test_flow_probability_matches_exact () =
  let icm = triangle 0.5 0.25 0.75 in
  let rng = Rng.create 41 in
  let estimate = Estimator.flow_probability rng icm test_config ~src:0 ~dst:2 in
  check_close ~eps:0.02 "triangle flow"
    (Exact.brute_force_flow icm ~src:0 ~dst:2)
    estimate

let test_flow_probability_random_graphs () =
  for seed = 1 to 4 do
    let icm = small_random_icm (100 + seed) ~nodes:8 ~edges:18 in
    let rng = Rng.create (200 + seed) in
    let truth = Exact.brute_force_flow icm ~src:0 ~dst:7 in
    let estimate =
      Estimator.flow_probability rng icm test_config ~src:0 ~dst:7
    in
    check_close ~eps:0.03 (Printf.sprintf "seed %d" seed) truth estimate
  done

let test_conditional_flow_matches_exact () =
  let icm = small_random_icm 51 ~nodes:7 ~edges:15 in
  let rng = Rng.create 52 in
  let conditions = [ (0, 3, true) ] in
  let truth = Exact.brute_force_conditional icm ~conditions ~src:0 ~dst:6 in
  let estimate =
    Estimator.flow_probability
      ~conditions:(Conditions.v conditions)
      rng icm test_config ~src:0 ~dst:6
  in
  check_close ~eps:0.03 "positive condition" truth estimate;
  let conditions = [ (0, 3, false); (1, 6, true) ] in
  match Exact.brute_force_conditional icm ~conditions ~src:0 ~dst:6 with
  | truth ->
    let estimate =
      Estimator.flow_probability
        ~conditions:(Conditions.v conditions)
        rng icm test_config ~src:0 ~dst:6
    in
    check_close ~eps:0.03 "mixed conditions" truth estimate
  | exception Failure _ -> ()

let test_conditional_by_ratio_matches_constrained () =
  (* the footnote-2 rejection/ratio estimator agrees with both the
     constrained chain and brute force *)
  let icm = small_random_icm 59 ~nodes:7 ~edges:15 in
  let rng = Rng.create 60 in
  let conditions = [ (0, 3, true) ] in
  let truth = Exact.brute_force_conditional icm ~conditions ~src:0 ~dst:6 in
  let by_ratio =
    Estimator.conditional_flow_by_ratio rng icm test_config
      ~conditions:(Conditions.v conditions) ~src:0 ~dst:6
  in
  check_close ~eps:0.04 "ratio estimator" truth by_ratio

let test_community_flow_matches_exact () =
  let icm = small_random_icm 53 ~nodes:7 ~edges:15 in
  let rng = Rng.create 54 in
  let sinks = [ 4; 5; 6 ] in
  let truth = Exact.brute_force_community icm ~src:0 ~sinks in
  let estimate = Estimator.community_flow rng icm test_config ~src:0 ~sinks in
  check_close ~eps:0.03 "community" truth estimate

let test_joint_flow () =
  let icm = small_random_icm 55 ~nodes:7 ~edges:15 in
  let rng = Rng.create 56 in
  (* joint flow from a single source to two sinks equals community flow *)
  let a = Estimator.joint_flow rng icm test_config ~flows:[ (0, 5); (0, 6) ] in
  let b = Exact.brute_force_community icm ~src:0 ~sinks:[ 5; 6 ] in
  check_close ~eps:0.03 "joint = community" b a

let test_source_to_all () =
  let icm = triangle 0.5 0.25 0.75 in
  let rng = Rng.create 57 in
  let all = Estimator.source_to_all rng icm test_config ~src:0 in
  check_close "self" 1.0 all.(0);
  check_close ~eps:0.02 "to 1" 0.5 all.(1);
  check_close ~eps:0.02 "to 2"
    (Exact.brute_force_flow icm ~src:0 ~dst:2)
    all.(2)

let test_impact_distribution_matches_exact () =
  let icm = triangle 0.5 0.25 0.75 in
  let rng = Rng.create 58 in
  let samples = Estimator.impact_samples rng icm test_config ~src:0 in
  let truth = Exact.brute_force_impact icm ~src:0 in
  let n = Array.length samples in
  let freq = Array.make 3 0 in
  Array.iter (fun k -> freq.(k) <- freq.(k) + 1) samples;
  for k = 0 to 2 do
    check_close ~eps:0.02
      (Printf.sprintf "impact %d" k)
      truth.(k)
      (float_of_int freq.(k) /. float_of_int n)
  done

(* ---------- Nested MH ---------- *)

let test_nested_flow_samples () =
  let rng = Rng.create 61 in
  let g = Digraph.of_edges ~nodes:2 [ (0, 1) ] in
  (* tight beta: nested samples should cluster near its mean *)
  let model = Beta_icm.create g [| Iflow_stats.Dist.Beta.v 80.0 20.0 |] in
  let samples =
    Nested.flow_samples rng model
      { Estimator.burn_in = 200; thin = 5; samples = 500 }
      ~reps:40 ~src:0 ~dst:1
  in
  Alcotest.(check int) "reps" 40 (Array.length samples);
  check_close ~eps:0.04 "clustered at beta mean" 0.8 (Descriptive.mean samples);
  Alcotest.(check bool) "spread is small" true (Descriptive.std samples < 0.1)

let test_nested_uncertainty_widens_with_flat_beta () =
  let rng = Rng.create 62 in
  let g = Digraph.of_edges ~nodes:2 [ (0, 1) ] in
  let config = { Estimator.burn_in = 200; thin = 5; samples = 400 } in
  let tight = Beta_icm.create g [| Iflow_stats.Dist.Beta.v 200.0 200.0 |] in
  let flat = Beta_icm.create g [| Iflow_stats.Dist.Beta.v 2.0 2.0 |] in
  let s_tight = Nested.flow_samples rng tight config ~reps:60 ~src:0 ~dst:1 in
  let s_flat = Nested.flow_samples rng flat config ~reps:60 ~src:0 ~dst:1 in
  Alcotest.(check bool) "flat beta gives wider flow distribution" true
    (Descriptive.std s_flat > 2.0 *. Descriptive.std s_tight)

let test_nested_fit_beta () =
  let rng = Rng.create 63 in
  let b = Iflow_stats.Dist.Beta.v 6.0 3.0 in
  let samples = Array.init 5000 (fun _ -> Iflow_stats.Dist.Beta.sample rng b) in
  match Nested.fit_beta samples with
  | None -> Alcotest.fail "fit failed"
  | Some fitted ->
    check_close ~eps:0.5 "alpha" 6.0 fitted.Iflow_stats.Dist.Beta.alpha;
    check_close ~eps:0.3 "beta" 3.0 fitted.Iflow_stats.Dist.Beta.beta

let test_gaussian_flow_samples () =
  let rng = Rng.create 64 in
  let g = Digraph.of_edges ~nodes:2 [ (0, 1) ] in
  let samples =
    Nested.gaussian_flow_samples rng g ~mean:[| 0.6 |] ~std:[| 0.05 |]
      { Estimator.burn_in = 100; thin = 2; samples = 300 }
      ~reps:40 ~src:0 ~dst:1
  in
  check_close ~eps:0.04 "gaussian mean" 0.6 (Descriptive.mean samples)

(* ---------- Delay (latency extension) ---------- *)

let test_delay_sample_dist () =
  let rng = Rng.create 71 in
  check_close "constant" 2.5 (Delay.sample_dist rng (Delay.Constant 2.5));
  let us = Array.init 5000 (fun _ -> Delay.sample_dist rng (Delay.Uniform (1.0, 3.0))) in
  Array.iter (fun u -> if u < 1.0 || u > 3.0 then Alcotest.fail "range") us;
  check_close ~eps:0.05 "uniform mean" 2.0 (Descriptive.mean us);
  let es = Array.init 20000 (fun _ -> Delay.sample_dist rng (Delay.Exponential 1.5)) in
  check_close ~eps:0.05 "exponential mean" 1.5 (Descriptive.mean es);
  let gs =
    Array.init 20000 (fun _ ->
        Delay.sample_dist rng (Delay.Gamma { shape = 2.0; scale = 0.5 }))
  in
  check_close ~eps:0.05 "gamma mean" 1.0 (Descriptive.mean gs);
  Alcotest.check_raises "negative constant"
    (Invalid_argument "Delay: negative constant") (fun () ->
      ignore (Delay.sample_dist rng (Delay.Constant (-1.0))))

let test_delay_earliest_arrival () =
  (* 0 -> 1 -> 2 plus a direct slow edge 0 -> 2 *)
  let g = Digraph.of_edges ~nodes:3 [ (0, 1); (1, 2); (0, 2) ] in
  let icm = Icm.const g 1.0 in
  let delays = [| 1.0; 1.0; 3.0 |] in
  let delay e = delays.(e) in
  Alcotest.(check (option (float 1e-12))) "two-hop wins" (Some 2.0)
    (Delay.earliest_arrival icm ~active:(fun _ -> true) ~delay ~src:0 ~dst:2);
  Alcotest.(check (option (float 1e-12))) "direct when hop cut" (Some 3.0)
    (Delay.earliest_arrival icm ~active:(fun e -> e <> 0) ~delay ~src:0 ~dst:2);
  Alcotest.(check (option (float 1e-12))) "unreachable" None
    (Delay.earliest_arrival icm
       ~active:(fun e -> e = 1)
       ~delay ~src:0 ~dst:2);
  Alcotest.(check (option (float 1e-12))) "self" (Some 0.0)
    (Delay.earliest_arrival icm ~active:(fun _ -> true) ~delay ~src:2 ~dst:2)

let test_delay_arrival_samples () =
  let rng = Rng.create 72 in
  let g = Digraph.of_edges ~nodes:2 [ (0, 1) ] in
  let model = Delay.uniform_delay (Icm.create g [| 0.5 |]) (Delay.Constant 2.0) in
  let config = { Estimator.burn_in = 500; thin = 5; samples = 4000 } in
  let result = Delay.arrival_samples rng model config ~src:0 ~dst:1 in
  Alcotest.(check int) "accounting" 4000
    (result.Delay.reached + result.Delay.missed);
  Array.iter (fun t -> check_close "constant delay" 2.0 t) result.Delay.times;
  check_close ~eps:0.03 "defective mass is flow probability" 0.5
    (float_of_int result.Delay.reached /. 4000.0);
  check_close ~eps:0.03 "deadline beats delay" 0.5
    (Delay.probability_within rng model config ~src:0 ~dst:1 ~deadline:2.5);
  check_close ~eps:0.03 "deadline too tight" 0.0
    (Delay.probability_within rng model config ~src:0 ~dst:1 ~deadline:1.0)

(* ---------- Influence maximisation ---------- *)

let test_influence_expected_spread () =
  let rng = Rng.create 75 in
  (* path 0 -> 1 -> 2 with certain edges: spread from {0} is 3 *)
  let icm = Icm.const (Gen.path 3) 1.0 in
  check_close "deterministic spread" 3.0
    (Influence.expected_spread rng icm ~seeds:[ 0 ] ~runs:50);
  (* single edge at p = 0.4: E[spread from {0}] = 1 + 0.4 *)
  let icm = Icm.create (Gen.path 2) [| 0.4 |] in
  check_close ~eps:0.03 "bernoulli spread" 1.4
    (Influence.expected_spread rng icm ~seeds:[ 0 ] ~runs:10000)

let test_influence_greedy_picks_hub () =
  let rng = Rng.create 76 in
  (* a star out of node 0 plus an isolated pair: the hub dominates *)
  let g =
    Digraph.of_edges ~nodes:7
      [ (0, 1); (0, 2); (0, 3); (0, 4); (5, 6) ]
  in
  let icm = Icm.const g 0.9 in
  let seeds, spread = Influence.greedy_seeds ~runs:300 rng icm ~k:2 in
  Alcotest.(check int) "two seeds" 2 (List.length seeds);
  Alcotest.(check bool) "hub selected first" true (List.hd seeds = 0);
  Alcotest.(check bool) "second seed covers the pair" true (List.mem 5 seeds);
  Alcotest.(check bool) "spread sane" true (spread > 5.0 && spread <= 7.0)

let test_influence_greedy_validation () =
  let rng = Rng.create 77 in
  let icm = Icm.const (Gen.path 3) 0.5 in
  Alcotest.check_raises "k too large"
    (Invalid_argument "Influence.greedy_seeds: bad k") (fun () ->
      ignore (Influence.greedy_seeds rng icm ~k:4))

(* ---------- Properties ---------- *)

let prop_conditioned_flow_is_certain =
  QCheck.Test.make ~count:8 ~name:"P(src~>mid | src~>mid) = 1 via sampling"
    QCheck.(int_range 0 1000)
    (fun seed ->
      let icm = small_random_icm seed ~nodes:6 ~edges:12 in
      if not (Iflow_graph.Traverse.reaches (Icm.graph icm) ~src:0 ~dst:3) then
        true (* condition infeasible on this topology: nothing to test *)
      else begin
        let rng = Rng.create (seed + 7) in
        let estimate =
          Estimator.flow_probability
            ~conditions:(Conditions.v [ (0, 3, true) ])
            rng icm
            { Estimator.burn_in = 500; thin = 5; samples = 500 }
            ~src:0 ~dst:3
        in
        estimate = 1.0
      end)

let qcheck tests =
  List.map (QCheck_alcotest.to_alcotest ~rand:(Random.State.make [| 0 |])) tests

let () =
  Alcotest.run "iflow_mcmc"
    [
      ( "conditions",
        [
          Alcotest.test_case "basics" `Quick test_conditions_basics;
          Alcotest.test_case "satisfied" `Quick test_conditions_satisfied;
          Alcotest.test_case "initial state" `Quick test_conditions_initial_state;
          Alcotest.test_case "determinism respected" `Quick
            test_conditions_initial_state_respects_determinism;
        ] );
      ( "chain",
        [
          Alcotest.test_case "normaliser consistency" `Quick test_chain_normaliser_consistency;
          Alcotest.test_case "impossible edges" `Quick test_chain_respects_impossible_edges;
          Alcotest.test_case "acceptance reported" `Quick test_chain_acceptance_reported;
          Alcotest.test_case "init validation" `Quick test_chain_init_validation;
          Alcotest.test_case "step allocates nothing" `Quick
            test_chain_step_allocates_nothing;
          Alcotest.test_case "stationary marginals" `Slow test_chain_stationary_marginals;
        ] );
      ( "estimator",
        [
          Alcotest.test_case "triangle vs exact" `Slow test_flow_probability_matches_exact;
          Alcotest.test_case "random graphs vs exact" `Slow test_flow_probability_random_graphs;
          Alcotest.test_case "conditional vs exact" `Slow test_conditional_flow_matches_exact;
          Alcotest.test_case "conditional by ratio" `Slow
            test_conditional_by_ratio_matches_constrained;
          Alcotest.test_case "community vs exact" `Slow test_community_flow_matches_exact;
          Alcotest.test_case "joint flow" `Slow test_joint_flow;
          Alcotest.test_case "source to all" `Slow test_source_to_all;
          Alcotest.test_case "impact distribution" `Slow test_impact_distribution_matches_exact;
        ]
        @ qcheck [ prop_conditioned_flow_is_certain ] );
      ( "influence",
        [
          Alcotest.test_case "expected spread" `Quick test_influence_expected_spread;
          Alcotest.test_case "greedy picks hub" `Slow test_influence_greedy_picks_hub;
          Alcotest.test_case "validation" `Quick test_influence_greedy_validation;
        ] );
      ( "delay",
        [
          Alcotest.test_case "sample dist" `Quick test_delay_sample_dist;
          Alcotest.test_case "earliest arrival" `Quick test_delay_earliest_arrival;
          Alcotest.test_case "arrival samples" `Slow test_delay_arrival_samples;
        ] );
      ( "nested",
        [
          Alcotest.test_case "flow samples" `Slow test_nested_flow_samples;
          Alcotest.test_case "uncertainty widens" `Slow test_nested_uncertainty_widens_with_flat_beta;
          Alcotest.test_case "fit beta" `Quick test_nested_fit_beta;
          Alcotest.test_case "gaussian sampling" `Slow test_gaussian_flow_samples;
        ] );
    ]
