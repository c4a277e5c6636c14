open Iflow_core
module Digraph = Iflow_graph.Digraph
module Gen = Iflow_graph.Gen
module Rng = Iflow_stats.Rng
module Beta = Iflow_stats.Dist.Beta

let check_close ?(eps = 1e-9) msg expected actual =
  Alcotest.(check (float eps)) msg expected actual

(* The paper's running example: v1 -> v2, v1 -> v3, v2 -> v3 (0-indexed
   as 0 -> 1, 0 -> 2, 1 -> 2). *)
let triangle p12 p13 p23 =
  let g = Digraph.of_edges ~nodes:3 [ (0, 1); (0, 2); (1, 2) ] in
  Icm.create g [| p12; p13; p23 |]

(* ---------- Icm ---------- *)

let test_icm_create () =
  let icm = triangle 0.5 0.25 0.75 in
  Alcotest.(check int) "nodes" 3 (Icm.n_nodes icm);
  Alcotest.(check int) "edges" 3 (Icm.n_edges icm);
  check_close "p13" 0.25 (Icm.prob icm 1);
  Alcotest.check_raises "bad prob"
    (Invalid_argument "Icm.create: p(0) = 1.5 outside [0,1]") (fun () ->
      ignore (triangle 1.5 0.0 0.0));
  let g = Gen.path 3 in
  Alcotest.check_raises "size"
    (Invalid_argument "Icm.create: 1 probabilities for 2 edges") (fun () ->
      ignore (Icm.create g [| 0.5 |]))

(* ---------- Pseudo_state ---------- *)

let test_pseudo_state_basics () =
  let s = Pseudo_state.create 5 in
  Alcotest.(check int) "none active" 0 (Pseudo_state.count_active s);
  Pseudo_state.set s 2 true;
  Pseudo_state.set s 4 true;
  Alcotest.(check bool) "get" true (Pseudo_state.get s 2);
  Alcotest.(check (list int)) "active list" [ 2; 4 ] (Pseudo_state.active_list s);
  Pseudo_state.flip s 2;
  Alcotest.(check bool) "flipped off" false (Pseudo_state.get s 2);
  let c = Pseudo_state.copy s in
  Pseudo_state.flip c 0;
  Alcotest.(check bool) "copy isolated" false (Pseudo_state.get s 0);
  Alcotest.(check bool) "equal self" true (Pseudo_state.equal s s);
  Alcotest.(check bool) "not equal" false (Pseudo_state.equal s c)

let test_pseudo_state_log_prob () =
  let icm = triangle 0.5 0.25 0.75 in
  let s = Pseudo_state.create 3 in
  (* all inactive: (1-.5)(1-.25)(1-.75) = 0.09375 *)
  check_close ~eps:1e-12 "all inactive" (Float.log 0.09375)
    (Pseudo_state.log_prob icm s);
  Pseudo_state.set s 0 true;
  (* 0.5 * 0.75 * 0.25 *)
  check_close ~eps:1e-12 "one active" (Float.log 0.09375)
    (Pseudo_state.log_prob icm s);
  let deterministic = triangle 0.0 1.0 0.5 in
  let s = Pseudo_state.create 3 in
  Alcotest.(check bool) "impossible state" true
    (Pseudo_state.log_prob deterministic s = neg_infinity)

let test_pseudo_state_flow () =
  let icm = triangle 1.0 0.0 1.0 in
  let s = Pseudo_state.create 3 in
  Pseudo_state.set s 0 true;
  Pseudo_state.set s 2 true;
  Alcotest.(check bool) "flow via chain" true
    (Pseudo_state.flow icm s ~src:0 ~dst:2);
  let reached = Pseudo_state.reachable icm s ~sources:[ 0 ] in
  Alcotest.(check (array bool)) "reachable" [| true; true; true |] reached;
  let s2 = Pseudo_state.create 3 in
  Pseudo_state.set s2 1 true;
  Alcotest.(check bool) "direct edge" true
    (Pseudo_state.flow icm s2 ~src:0 ~dst:2);
  Alcotest.(check bool) "no path" false (Pseudo_state.flow icm s2 ~src:0 ~dst:1)

let test_derive_active_edges () =
  let icm = triangle 1.0 1.0 1.0 in
  let s = Pseudo_state.create 3 in
  (* edge 2 (1->2) active but node 1 unreachable: not an active edge *)
  Pseudo_state.set s 2 true;
  let active = Pseudo_state.derive_active_edges icm s ~sources:[ 0 ] in
  Alcotest.(check (array bool)) "dangling edge dropped"
    [| false; false; false |] active;
  Pseudo_state.set s 0 true;
  let active = Pseudo_state.derive_active_edges icm s ~sources:[ 0 ] in
  Alcotest.(check (array bool)) "chain" [| true; false; true |] active

let test_pseudo_state_sample_frequency () =
  let icm = triangle 0.2 0.8 0.5 in
  let rng = Rng.create 3 in
  let counts = Array.make 3 0 in
  let n = 20000 in
  for _ = 1 to n do
    let s = Pseudo_state.sample rng icm in
    for e = 0 to 2 do
      if Pseudo_state.get s e then counts.(e) <- counts.(e) + 1
    done
  done;
  Array.iteri
    (fun e c ->
      check_close ~eps:0.02
        (Printf.sprintf "edge %d frequency" e)
        (Icm.prob icm e)
        (float_of_int c /. float_of_int n))
    counts

(* The sampler [sample] replaced: one [Rng.bernoulli] per edge. It must
   read the same draws and keep the same edges, so chains start where
   they did. *)
let test_pseudo_state_sample_matches_bernoulli () =
  let rng = Rng.create 41 in
  let probs =
    Array.init 900 (fun e ->
        match e mod 7 with 0 -> 0.0 | 1 -> 1.0 | _ -> Rng.uniform rng)
  in
  let icm = Icm.create (Gen.gnm rng ~nodes:200 ~edges:900) probs in
  for seed = 1 to 20 do
    let a = Rng.create seed and b = Rng.create seed in
    let s = Pseudo_state.sample a icm in
    let m = Icm.n_edges icm in
    let oracle = Pseudo_state.create m in
    for e = 0 to m - 1 do
      if Rng.bernoulli b (Icm.prob icm e) then Pseudo_state.set oracle e true
    done;
    Alcotest.(check bool)
      (Printf.sprintf "seed %d: same state" seed)
      true (Pseudo_state.equal s oracle);
    Alcotest.(check int)
      (Printf.sprintf "seed %d: same draws consumed" seed)
      (Rng.bits53 b) (Rng.bits53 a)
  done

(* ---------- Exact ---------- *)

let test_exact_triangle_closed_form () =
  (* Paper Equation (1): Pr[v1 ~> v3] = 1 - (1 - p12 p23)(1 - p13) *)
  List.iter
    (fun (p12, p13, p23) ->
      let icm = triangle p12 p13 p23 in
      let expected = 1.0 -. ((1.0 -. (p12 *. p23)) *. (1.0 -. p13)) in
      check_close ~eps:1e-12 "closed form" expected
        (Exact.flow_probability icm ~src:0 ~dst:2))
    [ (0.5, 0.25, 0.75); (0.1, 0.9, 0.3); (1.0, 0.0, 1.0); (0.0, 0.0, 0.7) ]

let test_exact_cycle_unchanged () =
  (* Adding the arc v3 -> v2 must not change Pr[v1 ~> v3] (paper Sec II). *)
  let p12 = 0.5 and p13 = 0.25 and p23 = 0.75 and p32 = 0.6 in
  let g = Digraph.of_edges ~nodes:3 [ (0, 1); (0, 2); (1, 2); (2, 1) ] in
  let icm = Icm.create g [| p12; p13; p23; p32 |] in
  let expected = 1.0 -. ((1.0 -. (p12 *. p23)) *. (1.0 -. p13)) in
  check_close ~eps:1e-12 "cycle" expected
    (Exact.flow_probability icm ~src:0 ~dst:2);
  (* but Pr[v1 ~> v2] does change: flow can route through v3. *)
  let without = triangle p12 p13 p23 in
  Alcotest.(check bool) "v1~>v2 grows" true
    (Exact.flow_probability icm ~src:0 ~dst:1
    > Exact.flow_probability without ~src:0 ~dst:1)

(* Equation 2 is exact when flows to a sink's parents are edge-disjoint;
   random trees qualify (each node has a single path from the root). *)
let test_exact_matches_brute_force_on_trees () =
  let rng = Rng.create 11 in
  for trial = 1 to 20 do
    (* random tree rooted at 0 with 8 nodes *)
    let pairs = List.init 7 (fun i -> (Rng.int rng (i + 1), i + 1)) in
    let g = Digraph.of_edges ~nodes:8 pairs in
    let probs = Array.init 7 (fun _ -> Rng.uniform rng) in
    let icm = Icm.create g probs in
    let dst = 1 + Rng.int rng 7 in
    check_close ~eps:1e-9
      (Printf.sprintf "trial %d" trial)
      (Exact.brute_force_flow icm ~src:0 ~dst)
      (Exact.flow_probability icm ~src:0 ~dst)
  done

(* The documented caveat: when two parents are fed through a shared
   edge, Equation 2 slightly overestimates the union. Pin the exact
   values so any change in behaviour is noticed. *)
let test_exact_shared_edge_overestimate () =
  let g =
    Digraph.of_edges ~nodes:5 [ (0, 1); (1, 2); (1, 3); (2, 4); (3, 4) ]
  in
  let icm = Icm.create g (Array.make 5 0.5) in
  (* truth: x01 and then either branch: 0.5 * (1 - (1 - 0.25)^2) *)
  check_close ~eps:1e-12 "brute force truth" 0.21875
    (Exact.brute_force_flow icm ~src:0 ~dst:4);
  check_close ~eps:1e-12 "equation 2 value" 0.234375
    (Exact.flow_probability icm ~src:0 ~dst:4);
  Alcotest.(check bool) "overestimates" true
    (Exact.flow_probability icm ~src:0 ~dst:4
    > Exact.brute_force_flow icm ~src:0 ~dst:4)

let test_exact_self_flow () =
  let icm = triangle 0.5 0.5 0.5 in
  check_close "self" 1.0 (Exact.flow_probability icm ~src:1 ~dst:1)

let test_brute_force_conditional () =
  let icm = triangle 0.5 0.25 0.75 in
  let unconditional = Exact.brute_force_flow icm ~src:0 ~dst:2 in
  let conditional =
    Exact.brute_force_conditional icm ~conditions:[ (0, 1, true) ] ~src:0
      ~dst:2
  in
  Alcotest.(check bool) "conditioning raises" true (conditional > unconditional);
  (* given 0 ~> 1 (edge 0 active): flow = 1 - (1 - p23)(1 - p13) *)
  check_close ~eps:1e-9 "hand value"
    (1.0 -. ((1.0 -. 0.75) *. (1.0 -. 0.25)))
    conditional;
  (* given NOT 0 ~> 1 (edge 0 inactive): flow = p13 *)
  check_close ~eps:1e-9 "negative condition" 0.25
    (Exact.brute_force_conditional icm ~conditions:[ (0, 1, false) ] ~src:0
       ~dst:2)

let test_brute_force_community_and_impact () =
  let icm = triangle 0.5 0.25 0.75 in
  let p_both = Exact.brute_force_community icm ~src:0 ~sinks:[ 1; 2 ] in
  let p1 = Exact.brute_force_flow icm ~src:0 ~dst:1 in
  let p2 = Exact.brute_force_flow icm ~src:0 ~dst:2 in
  Alcotest.(check bool) "community <= min marginal" true
    (p_both <= min p1 p2 +. 1e-12);
  let impact = Exact.brute_force_impact icm ~src:0 in
  check_close ~eps:1e-9 "impact normalised" 1.0
    (Array.fold_left ( +. ) 0.0 impact);
  (* E[#reached] = p1 + p2 by linearity of expectation *)
  check_close ~eps:1e-9 "impact mean" (p1 +. p2)
    (impact.(1) +. (2.0 *. impact.(2)))

(* ---------- Cascade ---------- *)

let test_cascade_deterministic () =
  let icm = triangle 1.0 0.0 1.0 in
  let rng = Rng.create 5 in
  let o = Cascade.run rng icm ~sources:[ 0 ] in
  Alcotest.(check (array bool)) "nodes" [| true; true; true |] o.Evidence.active_nodes;
  Alcotest.(check (array bool)) "edges" [| true; false; true |] o.Evidence.active_edges;
  Alcotest.(check int) "impact" 2 (Cascade.reached_count o)

let test_cascade_consistency () =
  let rng = Rng.create 6 in
  let g = Gen.gnm rng ~nodes:15 ~edges:40 in
  let icm = Icm.create g (Array.init 40 (fun _ -> Rng.uniform rng)) in
  for _ = 1 to 50 do
    let src = Rng.int rng 15 in
    let o = Cascade.run rng icm ~sources:[ src ] in
    Alcotest.(check bool) "consistent" true
      (Evidence.attributed_object_is_consistent g o)
  done

let test_cascade_flow_frequency_matches_exact () =
  let icm = triangle 0.5 0.25 0.75 in
  let rng = Rng.create 7 in
  let n = 30000 in
  let hits = ref 0 in
  for _ = 1 to n do
    let o = Cascade.run rng icm ~sources:[ 0 ] in
    if o.Evidence.active_nodes.(2) then incr hits
  done;
  check_close ~eps:0.01 "frequency vs exact"
    (Exact.flow_probability icm ~src:0 ~dst:2)
    (float_of_int !hits /. float_of_int n)

let test_trace_generation () =
  let icm = triangle 1.0 0.0 1.0 in
  let rng = Rng.create 8 in
  let tr = Cascade.run_trace rng icm ~sources:[ 0 ] in
  Alcotest.(check (array int)) "times" [| 0; 1; 2 |] tr.Evidence.times;
  Alcotest.(check bool) "consistent" true
    (Evidence.trace_is_consistent (Icm.graph icm) tr)

(* ---------- Evidence ---------- *)

let test_evidence_consistency_checks () =
  let g = Digraph.of_edges ~nodes:3 [ (0, 1); (1, 2) ] in
  let good =
    {
      Evidence.sources = [ 0 ];
      active_nodes = [| true; true; false |];
      active_edges = [| true; false |];
    }
  in
  Alcotest.(check bool) "good" true
    (Evidence.attributed_object_is_consistent g good);
  let orphan =
    {
      Evidence.sources = [ 0 ];
      active_nodes = [| true; false; true |];
      active_edges = [| false; false |];
    }
  in
  Alcotest.(check bool) "orphan active node" false
    (Evidence.attributed_object_is_consistent g orphan);
  let dangling =
    {
      Evidence.sources = [ 0 ];
      active_nodes = [| true; false; false |];
      active_edges = [| true; false |];
    }
  in
  Alcotest.(check bool) "edge into inactive node" false
    (Evidence.attributed_object_is_consistent g dangling)

let test_trace_of_active () =
  let tr =
    Evidence.trace_of_active ~sources:[ 0 ] ~times:[ (2, 3); (1, 1) ] ~n:4
  in
  Alcotest.(check (array int)) "times" [| 0; 1; 3; -1 |] tr.Evidence.times

(* ---------- Beta_icm ---------- *)

let test_train_attributed_counting () =
  let g = Digraph.of_edges ~nodes:3 [ (0, 1); (1, 2) ] in
  (* object A: 0 tweeted, 1 retweeted, 2 did not.
     object B: 0 tweeted, nobody retweeted. *)
  let a =
    {
      Evidence.sources = [ 0 ];
      active_nodes = [| true; true; false |];
      active_edges = [| true; false |];
    }
  in
  let b =
    {
      Evidence.sources = [ 0 ];
      active_nodes = [| true; false; false |];
      active_edges = [| false; false |];
    }
  in
  let model = Beta_icm.train_attributed g [ a; b ] in
  let b0 = Beta_icm.edge_beta model 0 in
  (* edge 0: fired once (A), parent active without firing once (B) *)
  check_close "alpha0" 2.0 b0.Beta.alpha;
  check_close "beta0" 2.0 b0.Beta.beta;
  let b1 = Beta_icm.edge_beta model 1 in
  (* edge 1: parent active in A only, never fired *)
  check_close "alpha1" 1.0 b1.Beta.alpha;
  check_close "beta1" 2.0 b1.Beta.beta

let test_train_recovers_probabilities () =
  let rng = Rng.create 9 in
  let g = Gen.gnm rng ~nodes:10 ~edges:30 in
  let truth = Icm.create g (Array.init 30 (fun _ -> Rng.uniform rng)) in
  let objects =
    List.init 3000 (fun _ -> Cascade.run rng truth ~sources:[ Rng.int rng 10 ])
  in
  let model = Beta_icm.train_attributed g objects in
  let icm = Beta_icm.expected_icm model in
  (* edges whose parent was active often should be estimated well *)
  let errors = ref [] in
  for e = 0 to 29 do
    let b = Beta_icm.edge_beta model e in
    let evidence_count = b.Beta.alpha +. b.Beta.beta -. 2.0 in
    if evidence_count > 200.0 then
      errors := Float.abs (Icm.prob icm e -. Icm.prob truth e) :: !errors
  done;
  Alcotest.(check bool) "some well-observed edges" true
    (List.length !errors > 5);
  let worst = List.fold_left Float.max 0.0 !errors in
  Alcotest.(check bool)
    (Printf.sprintf "max error %.3f < 0.12" worst)
    true (worst < 0.12)

let test_beta_icm_sampling_and_observe () =
  let g = Gen.path 2 in
  let model = Beta_icm.uninformed g in
  let model = Beta_icm.observe model ~edge:0 ~fired:true in
  let model = Beta_icm.observe model ~edge:0 ~fired:true in
  let model = Beta_icm.observe model ~edge:0 ~fired:false in
  let b = Beta_icm.edge_beta model 0 in
  check_close "alpha" 3.0 b.Beta.alpha;
  check_close "beta" 2.0 b.Beta.beta;
  check_close "expected" 0.6 (Icm.prob (Beta_icm.expected_icm model) 0);
  let rng = Rng.create 10 in
  let sampled = Beta_icm.sample_icm rng model in
  let p = Icm.prob sampled 0 in
  Alcotest.(check bool) "sampled in range" true (p >= 0.0 && p <= 1.0)

let test_grow_and_remove () =
  let g = Digraph.of_edges ~nodes:3 [ (0, 1); (1, 2) ] in
  let model =
    Beta_icm.create g [| Beta.v 5.0 3.0; Beta.v 2.0 2.0 |]
  in
  let grown =
    Beta_icm.grow model ~new_nodes:1
      ~new_edges:[ (2, 3, Beta.v 7.0 1.0); (3, 0, Beta.v 1.0 9.0) ]
  in
  Alcotest.(check int) "nodes" 4 (Beta_icm.n_nodes grown);
  Alcotest.(check int) "edges" 4 (Beta_icm.n_edges grown);
  (* existing edge ids and betas preserved *)
  check_close "old alpha kept" 5.0 (Beta_icm.edge_beta grown 0).Beta.alpha;
  check_close "new alpha" 7.0 (Beta_icm.edge_beta grown 2).Beta.alpha;
  Alcotest.(check bool) "new edge present" true
    (Digraph.mem_edge (Beta_icm.graph grown) ~src:3 ~dst:0);
  let pruned = Beta_icm.remove_edges grown [ (1, 2); (9, 9) ] in
  Alcotest.(check int) "edge removed" 3 (Beta_icm.n_edges pruned);
  Alcotest.(check bool) "gone" false
    (Digraph.mem_edge (Beta_icm.graph pruned) ~src:1 ~dst:2);
  (* betas stay aligned with their edges after the id shift *)
  (match Digraph.find_edge (Beta_icm.graph pruned) ~src:2 ~dst:3 with
  | Some e -> check_close "realigned" 7.0 (Beta_icm.edge_beta pruned e).Beta.alpha
  | None -> Alcotest.fail "edge 2->3 missing");
  (* evidence accumulated before the change survives it *)
  match Digraph.find_edge (Beta_icm.graph pruned) ~src:0 ~dst:1 with
  | Some e -> check_close "evidence kept" 5.0 (Beta_icm.edge_beta pruned e).Beta.alpha
  | None -> Alcotest.fail "edge 0->1 missing"

(* ---------- Summary ---------- *)

let table_one () =
  (* Paper Table I: sink k with incident nodes A=0, B=1, C=2 *)
  Summary.of_table ~sink:3
    [ ([| 0; 1 |], 5, 1); ([| 1; 2 |], 50, 15); ([| 0; 2 |], 10, 2) ]

let test_summary_of_table () =
  let s = table_one () in
  Alcotest.(check int) "entries" 3 (Summary.n_entries s);
  Alcotest.(check int) "observations" 65 (Summary.total_observations s);
  Alcotest.(check int) "leaks" 18 (Summary.total_leaks s);
  Alcotest.(check (array int)) "parents" [| 0; 1; 2 |] (Summary.parents_union s);
  Alcotest.(check (list (triple int int int))) "no unambiguous" []
    (Summary.unambiguous s)

let test_summary_of_table_errors () =
  Alcotest.check_raises "leaks > count"
    (Invalid_argument "Summary.of_table: bad counts") (fun () ->
      ignore (Summary.of_table ~sink:0 [ ([| 1 |], 2, 3) ]));
  Alcotest.check_raises "unsorted"
    (Invalid_argument "Summary.of_table: characteristic not strictly sorted")
    (fun () -> ignore (Summary.of_table ~sink:0 [ ([| 2; 1 |], 2, 1) ]));
  Alcotest.check_raises "duplicate"
    (Invalid_argument "Summary.of_table: duplicate characteristic") (fun () ->
      ignore (Summary.of_table ~sink:0 [ ([| 1 |], 2, 1); ([| 1 |], 3, 1) ]))

let test_summary_build_from_traces () =
  (* Graph: 0 -> 2, 1 -> 2. Traces vary who was active before 2. *)
  let g = Digraph.of_edges ~nodes:3 [ (0, 2); (1, 2) ] in
  let tr sources times = Evidence.trace_of_active ~sources ~times ~n:3 in
  let traces =
    [
      (* {0}, leak *)
      tr [ 0 ] [ (2, 1) ];
      (* {0}, no leak *)
      tr [ 0 ] [];
      (* {0,1}, leak *)
      tr [ 0 ] [ (1, 1); (2, 2) ];
      (* 1 activated after 2: characteristic is {0} only; leak *)
      tr [ 0 ] [ (2, 1); (1, 2) ];
      (* 2 is a source: dropped *)
      tr [ 2 ] [ (0, 1) ];
      (* {1}, no leak *)
      tr [ 1 ] [];
    ]
  in
  let s = Summary.build g traces ~sink:2 in
  let find parents =
    List.find_opt (fun (e : Summary.entry) -> e.parents = parents) s.entries
  in
  (match find [| 0 |] with
  | Some e ->
    Alcotest.(check int) "{0} count" 3 e.count;
    Alcotest.(check int) "{0} leaks" 2 e.leaks
  | None -> Alcotest.fail "{0} missing");
  (match find [| 0; 1 |] with
  | Some e ->
    Alcotest.(check int) "{0,1} count" 1 e.count;
    Alcotest.(check int) "{0,1} leaks" 1 e.leaks
  | None -> Alcotest.fail "{0,1} missing");
  match find [| 1 |] with
  | Some e ->
    Alcotest.(check int) "{1} count" 1 e.count;
    Alcotest.(check int) "{1} leaks" 0 e.leaks
  | None -> Alcotest.fail "{1} missing"

let test_summary_likelihood () =
  let s = Summary.of_table ~sink:2 [ ([| 0 |], 10, 7) ] in
  let ll = Summary.log_likelihood s ~prob:(fun _ -> 0.7) in
  check_close ~eps:1e-12 "bernoulli ll"
    ((7.0 *. Float.log 0.7) +. (3.0 *. Float.log 0.3))
    ll;
  let exact = Summary.log_likelihood_exact s ~prob:(fun _ -> 0.7) in
  check_close ~eps:1e-9 "with binomial coefficient"
    (ll +. Iflow_stats.Special.log_choose 10 7)
    exact

(* The summary is a sufficient statistic: for any two parameter vectors,
   the log-likelihood difference computed from the summary equals the
   one computed from the raw per-object events. *)
let test_summary_sufficiency () =
  let rng = Rng.create 12 in
  let g = Digraph.of_edges ~nodes:4 [ (0, 3); (1, 3); (2, 3) ] in
  let truth = Icm.create g [| 0.7; 0.3; 0.5 |] in
  let traces =
    List.init 300 (fun _ ->
        let active = Array.init 3 (fun _ -> Rng.bool rng) in
        let sources =
          List.filter_map
            (fun j -> if active.(j) then Some j else None)
            [ 0; 1; 2 ]
        in
        match sources with
        | [] -> Evidence.trace_of_active ~sources:[ 0 ] ~times:[] ~n:4
        | _ ->
          let survive = ref 1.0 in
          Array.iteri
            (fun j a ->
              if a then survive := !survive *. (1.0 -. Icm.prob truth j))
            active;
          let leaked = Rng.uniform rng < 1.0 -. !survive in
          let times = if leaked then [ (3, 1) ] else [] in
          Evidence.trace_of_active ~sources ~times ~n:4)
  in
  let s = Summary.build g traces ~sink:3 in
  let raw_ll prob =
    List.fold_left
      (fun acc (tr : Evidence.trace) ->
        let parents = List.filter (fun j -> tr.times.(j) >= 0) [ 0; 1; 2 ] in
        match parents with
        | [] -> acc
        | _ ->
          let survive =
            List.fold_left (fun a j -> a *. (1.0 -. prob j)) 1.0 parents
          in
          let p = 1.0 -. survive in
          if tr.times.(3) >= 0 then acc +. Float.log (Float.max p 1e-300)
          else acc +. Float.log (Float.max (1.0 -. p) 1e-300))
      0.0 traces
  in
  let prob_a j = [| 0.6; 0.2; 0.45 |].(j) in
  let prob_b j = [| 0.3; 0.55; 0.8 |].(j) in
  let delta_summary =
    Summary.log_likelihood s ~prob:prob_a
    -. Summary.log_likelihood s ~prob:prob_b
  in
  let delta_raw = raw_ll prob_a -. raw_ll prob_b in
  check_close ~eps:1e-6 "sufficiency" delta_raw delta_summary

(* ---------- Generator ---------- *)

let test_generator_beta_icm () =
  let rng = Rng.create 13 in
  let model = Generator.default_beta_icm rng ~nodes:50 ~edges:200 in
  Alcotest.(check int) "nodes" 50 (Beta_icm.n_nodes model);
  Alcotest.(check int) "edges" 200 (Beta_icm.n_edges model);
  for e = 0 to 199 do
    let b = Beta_icm.edge_beta model e in
    if
      b.Beta.alpha < 1.0 || b.Beta.alpha > 20.0 || b.Beta.beta < 1.0
      || b.Beta.beta > 20.0
    then Alcotest.failf "edge %d out of range" e
  done

let test_generator_skewed () =
  let rng = Rng.create 14 in
  let g = Gen.gnm rng ~nodes:40 ~edges:600 in
  let icm = Generator.skewed_ground_truth rng g in
  let probs = Icm.probs icm in
  let high = Array.fold_left (fun c p -> if p > 0.5 then c + 1 else c) 0 probs in
  (* ~90% from Beta(16,4) (mean .8): expect most probabilities > 0.5 *)
  Alcotest.(check bool) "skew shape" true (high > 420 && high < 600)

let test_generator_in_star () =
  let g, icm, sink = Generator.in_star_icm ~probs:[| 0.68; 0.73; 0.85 |] in
  Alcotest.(check int) "sink" 3 sink;
  Alcotest.(check int) "in degree" 3 (Digraph.in_degree g sink);
  check_close "p0" 0.68 (Icm.prob icm 0)

let prop_exact_flow_in_unit_interval =
  QCheck.Test.make ~count:60 ~name:"exact flow probability lies in [0,1]"
    QCheck.(int_range 0 100000)
    (fun seed ->
      let rng = Rng.create seed in
      let g = Gen.gnm rng ~nodes:7 ~edges:14 in
      let icm = Icm.create g (Array.init 14 (fun _ -> Rng.uniform rng)) in
      let p = Exact.flow_probability icm ~src:0 ~dst:6 in
      p >= 0.0 && p <= 1.0)

let prop_exact_flow_monotone_in_probs =
  QCheck.Test.make ~count:40
    ~name:"raising edge probabilities never lowers flow"
    QCheck.(int_range 0 100000)
    (fun seed ->
      let rng = Rng.create seed in
      let g = Gen.gnm rng ~nodes:6 ~edges:12 in
      let probs = Array.init 12 (fun _ -> Rng.uniform rng) in
      let boosted =
        Array.map (fun p -> p +. ((1.0 -. p) *. Rng.uniform rng)) probs
      in
      let p1 = Exact.flow_probability (Icm.create g probs) ~src:0 ~dst:5 in
      let p2 = Exact.flow_probability (Icm.create g boosted) ~src:0 ~dst:5 in
      p2 >= p1 -. 1e-12)

let prop_pseudo_state_gives_consistent_active_state =
  QCheck.Test.make ~count:60
    ~name:"derived active state is consistent attributed evidence"
    QCheck.(int_range 0 100000)
    (fun seed ->
      let rng = Rng.create seed in
      let g = Gen.gnm rng ~nodes:8 ~edges:20 in
      let icm = Icm.create g (Array.init 20 (fun _ -> Rng.uniform rng)) in
      let s = Pseudo_state.sample rng icm in
      let src = Rng.int rng 8 in
      let o =
        {
          Evidence.sources = [ src ];
          active_nodes = Pseudo_state.reachable icm s ~sources:[ src ];
          active_edges = Pseudo_state.derive_active_edges icm s ~sources:[ src ];
        }
      in
      Evidence.attributed_object_is_consistent g o)

(* ---------- publish cost ---------- *)

let gnm_beta_model seed ~nodes ~edges =
  let rng = Rng.create seed in
  let g = Gen.gnm rng ~nodes ~edges in
  Beta_icm.create g
    (Array.init edges (fun _ ->
         Beta.v (1.0 +. (9.0 *. Rng.uniform rng)) (1.0 +. (9.0 *. Rng.uniform rng))))

(* minor words one call of [f] allocates, after two warm-up calls *)
let minor_words_of f =
  ignore (Sys.opaque_identity (f ()));
  ignore (Sys.opaque_identity (f ()));
  let w0 = Gc.minor_words () in
  ignore (Sys.opaque_identity (f ()));
  Gc.minor_words () -. w0

(* every word one call of [f] allocates, minor and major (arrays this
   large go straight to the major heap, which [Gc.quick_stat] does not
   count until later); the [Gc.stat] records add a few words *)
let words_of f =
  ignore (Sys.opaque_identity (f ()));
  let s0 = Gc.stat () in
  ignore (Sys.opaque_identity (f ()));
  let s1 = Gc.stat () in
  s1.Gc.minor_words -. s0.Gc.minor_words
  +. (s1.Gc.major_words -. s0.Gc.major_words)
  -. (s1.Gc.promoted_words -. s0.Gc.promoted_words)

(* A digest resumes from the graph's structure fingerprint and hashes
   the per-edge numbers without boxing: its allocation is a constant
   (the hex string and one boxed state), not a function of m. *)
let test_digest_allocation () =
  let sizes = [ (500, 1000); (2000, 4000) ] in
  let counts =
    List.map
      (fun (nodes, edges) ->
        let model = gnm_beta_model 41 ~nodes ~edges in
        let icm = Beta_icm.expected_icm model in
        let w_icm = minor_words_of (fun () -> Icm.digest icm) in
        let w_beta = minor_words_of (fun () -> Beta_icm.digest model) in
        if w_icm > 64.0 || w_beta > 64.0 then
          Alcotest.failf "m = %d: Icm.digest %.0f words, Beta_icm.digest %.0f words"
            edges w_icm w_beta;
        (w_icm, w_beta))
      sizes
  in
  Alcotest.(check bool) "independent of m" true
    (List.for_all (fun c -> c = List.hd counts) counts)

(* freeze copies the two pseudo-count arrays and boxes nothing per
   edge; expected_icm builds one probability array and Icm.own keeps
   it, so it stays within one float array *)
let test_publish_allocation () =
  let edges = 4000 in
  let model = gnm_beta_model 42 ~nodes:2000 ~edges in
  let acc = Beta_icm.Accum.of_model model in
  for e = 0 to 99 do
    Beta_icm.Accum.observe acc ~edge:(e * 37 mod edges) ~fired:(e mod 3 = 0)
  done;
  let two_arrays = float_of_int (2 * (edges + 1)) in
  let w = words_of (fun () -> Beta_icm.Accum.freeze acc) in
  if w > two_arrays +. 64.0 then
    Alcotest.failf "Accum.freeze: %.0f words for %d edges" w edges;
  let frozen = Beta_icm.Accum.freeze acc in
  let w = words_of (fun () -> Beta_icm.expected_icm frozen) in
  if w > float_of_int (edges + 1) +. 64.0 then
    Alcotest.failf "expected_icm: %.0f words for %d edges" w edges;
  (* the unboxed path computes what the per-edge Beta.t path did *)
  let icm = Beta_icm.expected_icm frozen in
  for e = 0 to edges - 1 do
    let b = Beta_icm.edge_beta frozen e in
    if Int64.bits_of_float (Icm.prob icm e) <> Int64.bits_of_float (Beta.mean b)
    then Alcotest.failf "edge %d: expected_icm differs from Beta.mean" e
  done

let qcheck tests =
  List.map (QCheck_alcotest.to_alcotest ~rand:(Random.State.make [| 0 |])) tests

let () =
  Alcotest.run "iflow_core"
    [
      ("icm", [ Alcotest.test_case "create" `Quick test_icm_create ]);
      ( "pseudo_state",
        [
          Alcotest.test_case "basics" `Quick test_pseudo_state_basics;
          Alcotest.test_case "log prob" `Quick test_pseudo_state_log_prob;
          Alcotest.test_case "flow" `Quick test_pseudo_state_flow;
          Alcotest.test_case "derive active edges" `Quick test_derive_active_edges;
          Alcotest.test_case "sample frequency" `Quick test_pseudo_state_sample_frequency;
          Alcotest.test_case "sample equals bernoulli oracle" `Quick
            test_pseudo_state_sample_matches_bernoulli;
        ]
        @ qcheck [ prop_pseudo_state_gives_consistent_active_state ] );
      ( "exact",
        [
          Alcotest.test_case "triangle closed form" `Quick test_exact_triangle_closed_form;
          Alcotest.test_case "cycle unchanged" `Quick test_exact_cycle_unchanged;
          Alcotest.test_case "matches brute force on trees" `Quick
            test_exact_matches_brute_force_on_trees;
          Alcotest.test_case "shared-edge overestimate (caveat)" `Quick
            test_exact_shared_edge_overestimate;
          Alcotest.test_case "self flow" `Quick test_exact_self_flow;
          Alcotest.test_case "conditional" `Quick test_brute_force_conditional;
          Alcotest.test_case "community and impact" `Quick test_brute_force_community_and_impact;
        ]
        @ qcheck
            [ prop_exact_flow_in_unit_interval; prop_exact_flow_monotone_in_probs ] );
      ( "cascade",
        [
          Alcotest.test_case "deterministic" `Quick test_cascade_deterministic;
          Alcotest.test_case "consistency" `Quick test_cascade_consistency;
          Alcotest.test_case "frequency vs exact" `Quick test_cascade_flow_frequency_matches_exact;
          Alcotest.test_case "trace generation" `Quick test_trace_generation;
        ] );
      ( "evidence",
        [
          Alcotest.test_case "consistency checks" `Quick test_evidence_consistency_checks;
          Alcotest.test_case "trace of active" `Quick test_trace_of_active;
        ] );
      ( "beta_icm",
        [
          Alcotest.test_case "attributed counting" `Quick test_train_attributed_counting;
          Alcotest.test_case "recovers probabilities" `Quick test_train_recovers_probabilities;
          Alcotest.test_case "sampling and observe" `Quick test_beta_icm_sampling_and_observe;
          Alcotest.test_case "grow and remove" `Quick test_grow_and_remove;
          Alcotest.test_case "digests allocate O(1)" `Quick test_digest_allocation;
          Alcotest.test_case "publish boxes nothing per edge" `Quick
            test_publish_allocation;
        ] );
      ( "summary",
        [
          Alcotest.test_case "of_table (Table I)" `Quick test_summary_of_table;
          Alcotest.test_case "of_table errors" `Quick test_summary_of_table_errors;
          Alcotest.test_case "build from traces" `Quick test_summary_build_from_traces;
          Alcotest.test_case "likelihood" `Quick test_summary_likelihood;
          Alcotest.test_case "sufficiency" `Quick test_summary_sufficiency;
        ] );
      ( "generator",
        [
          Alcotest.test_case "beta icm" `Quick test_generator_beta_icm;
          Alcotest.test_case "skewed" `Quick test_generator_skewed;
          Alcotest.test_case "in star" `Quick test_generator_in_star;
        ] );
    ]
