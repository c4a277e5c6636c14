(* The dynamic reachability layer (PR 2): workspace BFS vs Traverse,
   the incremental per-source cache vs fresh BFS over long random flip
   sequences, and a bit-for-bit regression of the conditioned chain
   against a replica of the seed implementation. *)

module Digraph = Iflow_graph.Digraph
module Gen = Iflow_graph.Gen
module Traverse = Iflow_graph.Traverse
module Reach = Iflow_graph.Reach
module Rng = Iflow_stats.Rng
module Fenwick = Iflow_stats.Fenwick
module Icm = Iflow_core.Icm
module Pseudo_state = Iflow_core.Pseudo_state
module Chain = Iflow_mcmc.Chain
module Conditions = Iflow_mcmc.Conditions
module Estimator = Iflow_mcmc.Estimator

(* ---------- Workspace vs Traverse ---------- *)

let random_setting seed =
  let rng = Rng.create seed in
  let nodes = 2 + Rng.int rng 40 in
  let max_edges = nodes * (nodes - 1) in
  let edges = min max_edges (1 + Rng.int rng (4 * nodes)) in
  let g = Gen.gnm rng ~nodes ~edges in
  let active = Array.init edges (fun _ -> Rng.bool rng) in
  (rng, g, active)

let test_workspace_matches_traverse () =
  for seed = 1 to 50 do
    let rng, g, active = random_setting (1000 + seed) in
    let n = Digraph.n_nodes g in
    let ws = Reach.workspace n in
    let act e = active.(e) in
    (* single and multi-source reachability *)
    for _ = 1 to 5 do
      let k = 1 + Rng.int rng 3 in
      let sources = List.init k (fun _ -> Rng.int rng n) in
      let fresh = Traverse.reachable_from ~active:act g sources in
      let ours = Reach.reachable_from ws ~active:act g sources in
      if fresh <> ours then
        Alcotest.failf "seed %d: reachable_from mismatch" seed;
      (* the marks survive until the next workspace operation *)
      Array.iteri
        (fun v m ->
          if Reach.marked ws v <> m then
            Alcotest.failf "seed %d: marked mismatch at %d" seed v)
        fresh
    done;
    (* shortest paths *)
    for _ = 1 to 10 do
      let src = Rng.int rng n and dst = Rng.int rng n in
      let fresh = Traverse.shortest_path ~active:act g ~src ~dst in
      let ours = Reach.shortest_path ws ~active:act g ~src ~dst in
      if fresh <> ours then
        Alcotest.failf "seed %d: shortest_path mismatch %d->%d" seed src dst
    done
  done

let test_workspace_reuse_resets () =
  (* back-to-back BFS runs on the same workspace never leak marks *)
  let g = Digraph.of_edges ~nodes:4 [ (0, 1); (1, 2); (2, 3) ] in
  let ws = Reach.workspace 4 in
  let all e = e >= 0 in
  Reach.bfs ws ~active:all g ~src:0;
  Alcotest.(check int) "all reached" 4 (Reach.count_marked ws);
  Reach.bfs ws ~active:all g ~src:3;
  Alcotest.(check int) "only 3" 1 (Reach.count_marked ws);
  Alcotest.(check bool) "0 not marked" false (Reach.marked ws 0);
  Alcotest.(check (array bool)) "snapshot"
    [| false; false; false; true |]
    (Reach.snapshot ws)

let test_cheapest_path_prefers_zero_cost () =
  (* direct 1-hop inactive edge vs 3-hop all-active path: the 0-1 BFS
     must take the longer path that activates nothing *)
  let g =
    Digraph.of_edges ~nodes:4 [ (0, 3); (0, 1); (1, 2); (2, 3) ]
  in
  let ws = Reach.workspace 4 in
  let usable _ = true in
  let active = [| false; true; true; true |] in
  Alcotest.(check (option (list int)))
    "all-active detour wins"
    (Some [ 1; 2; 3 ])
    (Reach.cheapest_path ws ~usable ~zero_cost:(fun e -> active.(e)) g
       ~src:0 ~dst:3);
  (* when nothing is active the direct edge is cheapest *)
  Alcotest.(check (option (list int)))
    "direct edge when all cost 1"
    (Some [ 0 ])
    (Reach.cheapest_path ws ~usable ~zero_cost:(fun _ -> false) g
       ~src:0 ~dst:3);
  Alcotest.(check (option (list int)))
    "unreachable" None
    (Reach.cheapest_path ws ~usable:(fun e -> e = 1) ~zero_cost:(fun _ -> false)
       g ~src:0 ~dst:3);
  Alcotest.(check (option (list int)))
    "self" (Some [])
    (Reach.cheapest_path ws ~usable ~zero_cost:(fun _ -> false) g ~src:2 ~dst:2)

let test_cheapest_path_cost_minimal () =
  (* on random graphs, the number of newly activated edges never exceeds
     that of the plain shortest path, and the path is sound *)
  for seed = 1 to 30 do
    let rng, g, active = random_setting (2000 + seed) in
    let n = Digraph.n_nodes g in
    let ws = Reach.workspace n in
    let usable _ = true in
    let zero_cost e = active.(e) in
    let cost = List.fold_left (fun c e -> if active.(e) then c else c + 1) 0 in
    for _ = 1 to 10 do
      let src = Rng.int rng n and dst = Rng.int rng n in
      match
        ( Reach.cheapest_path ws ~usable ~zero_cost g ~src ~dst,
          Traverse.shortest_path g ~src ~dst )
      with
      | None, None -> ()
      | None, Some _ | Some _, None ->
        Alcotest.failf "seed %d: reachability disagreement" seed
      | Some cheap, Some short ->
        if cost cheap > cost short then
          Alcotest.failf "seed %d: cheapest path costs more" seed;
        (* soundness: consecutive edges from src to dst *)
        let at = ref src in
        List.iter
          (fun e ->
            if Digraph.edge_src g e <> !at then
              Alcotest.failf "seed %d: broken path" seed;
            at := Digraph.edge_dst g e)
          cheap;
        if !at <> dst then Alcotest.failf "seed %d: path misses dst" seed
    done
  done

(* ---------- Incremental cache vs fresh BFS ---------- *)

(* >= 10k random single-edge flips per run, against a model with clamped
   (p = 0 / p = 1) edges that stay pinned while the free edges churn;
   every flip's incremental update — and, periodically, its undo — must
   agree with a from-scratch Traverse BFS. *)
let cache_flip_run seed flips =
  let rng = Rng.create seed in
  let nodes = 3 + Rng.int rng 40 in
  let max_edges = nodes * (nodes - 1) in
  let edges = min max_edges (2 + Rng.int rng (5 * nodes)) in
  let g = Gen.gnm rng ~nodes ~edges in
  let probs =
    Array.init edges (fun _ ->
        let u = Rng.uniform rng in
        if u < 0.1 then 0.0
        else if u > 0.9 then 1.0
        else 0.1 +. (0.8 *. Rng.uniform rng))
  in
  let active =
    Array.init edges (fun e ->
        if probs.(e) >= 1.0 then true
        else if probs.(e) <= 0.0 then false
        else Rng.bool rng)
  in
  let flippable =
    Array.of_list
      (List.filter
         (fun e -> probs.(e) > 0.0 && probs.(e) < 1.0)
         (List.init edges Fun.id))
  in
  if Array.length flippable = 0 then ()
  else begin
    let act e = active.(e) in
    let ws = Reach.workspace nodes in
    let source = Rng.int rng nodes in
    let cache = Reach.Cache.create ws g ~source ~active:act in
    let agree_with_fresh what =
      let fresh = Traverse.reachable_from ~active:act g [ source ] in
      for v = 0 to nodes - 1 do
        if fresh.(v) <> Reach.Cache.reaches cache v then
          Alcotest.failf "seed %d: %s: node %d disagrees with fresh BFS" seed
            what v
      done
    in
    for step = 1 to flips do
      let e = flippable.(Rng.int rng (Array.length flippable)) in
      active.(e) <- not active.(e);
      let receipt = Reach.Cache.update cache ~active:act ~edge:e in
      if step mod 13 = 0 then begin
        (* rejected-proposal path: revert the flip and the cache *)
        Reach.Cache.undo cache receipt;
        active.(e) <- not active.(e);
        agree_with_fresh "after undo";
        (* re-apply so the run keeps drifting *)
        active.(e) <- not active.(e);
        ignore (Reach.Cache.update cache ~active:act ~edge:e)
      end;
      agree_with_fresh "after flip"
    done
  end

let test_cache_vs_fresh_bfs () =
  (* several graphs; > 10k flips in total per graph family *)
  List.iter (fun seed -> cache_flip_run seed 3500) [ 11; 12; 13; 14 ]

let test_cache_long_run () = cache_flip_run 99 12_000

let test_cache_rebuild () =
  (* bulk edits go through rebuild, not update *)
  let g = Digraph.of_edges ~nodes:3 [ (0, 1); (1, 2) ] in
  let active = [| true; true |] in
  let ws = Reach.workspace 3 in
  let cache = Reach.Cache.create ws g ~source:0 ~active:(fun e -> active.(e)) in
  Alcotest.(check bool) "reaches end" true (Reach.Cache.reaches cache 2);
  Alcotest.(check int) "source" 0 (Reach.Cache.source cache);
  active.(0) <- false;
  active.(1) <- false;
  Reach.Cache.rebuild cache ~active:(fun e -> active.(e));
  Alcotest.(check bool) "only source" false (Reach.Cache.reaches cache 1);
  Alcotest.(check bool) "source itself" true (Reach.Cache.reaches cache 0)

(* ---------- satisfied_ws agrees with a Traverse oracle ---------- *)

let test_satisfied_ws_agrees () =
  for seed = 1 to 40 do
    let rng = Rng.create (3000 + seed) in
    let nodes = 3 + Rng.int rng 12 in
    let max_edges = nodes * (nodes - 1) in
    let edges = min max_edges (2 + Rng.int rng (3 * nodes)) in
    let g = Gen.gnm rng ~nodes ~edges in
    let icm =
      Icm.create g (Array.init edges (fun _ -> 0.1 +. (0.8 *. Rng.uniform rng)))
    in
    let ws = Reach.workspace nodes in
    for _ = 1 to 10 do
      let s = Pseudo_state.sample rng icm in
      let k = 1 + Rng.int rng 4 in
      let raw =
        List.init k (fun _ ->
            (Rng.int rng nodes, Rng.int rng nodes, Rng.bool rng))
      in
      (* keep one condition per (src, dst) and no (u, u, false):
         Conditions.v rejects contradictions and self-negatives *)
      let dedup =
        List.fold_left
          (fun acc (u, v, r) ->
            if
              (u = v && not r)
              || List.exists (fun (u', v', _) -> u = u' && v = v') acc
            then acc
            else (u, v, r) :: acc)
          [] raw
      in
      let conds = Conditions.v dedup in
      (* independent oracle: one allocating Traverse sweep per condition *)
      let expected =
        List.for_all
          (fun (u, v, r) ->
            (Pseudo_state.reachable icm s ~sources:[ u ]).(v) = r)
          dedup
      in
      let got = Conditions.satisfied_ws ws icm s conds in
      if expected <> got then
        Alcotest.failf "seed %d: satisfied_ws disagrees (%b vs %b)" seed
          expected got
    done
  done

(* ---------- bit-for-bit chain regression vs the seed sampler ---------- *)

(* The seed implementation's step, replicated verbatim against the
   public API: fresh allocating `Conditions.satisfied` check on every
   accepted proposal. The incremental chain must walk the exact same
   trajectory — same RNG draws, same accept/reject decisions, same
   states — under a fixed seed. *)
module Seed_chain = struct
  type t = {
    icm : Icm.t;
    conditions : Conditions.t;
    state : Pseudo_state.t;
    weights : Fenwick.t;
    mutable z : float;
    mutable accepted : int;
  }

  let proposal_weight icm state e =
    let p = Icm.prob icm e in
    if Pseudo_state.get state e then 1.0 -. p else p

  let create rng icm conditions =
    let state =
      match Conditions.initial_state rng icm conditions with
      | Some s -> s
      | None -> failwith "Seed_chain.create: unsatisfiable conditions"
    in
    let weights =
      Fenwick.of_array
        (Array.init (Icm.n_edges icm) (proposal_weight icm state))
    in
    { icm; conditions; state; weights; z = Fenwick.total weights; accepted = 0 }

  let step rng t =
    if t.z > 0.0 then begin
      let e = Fenwick.sample rng t.weights in
      let w = Fenwick.get t.weights e in
      let z' = t.z +. 1.0 -. (2.0 *. w) in
      let a = if t.z < z' then t.z /. z' else 1.0 in
      if Rng.uniform rng <= a then begin
        Pseudo_state.flip t.state e;
        if Conditions.satisfied t.icm t.state t.conditions then begin
          t.accepted <- t.accepted + 1;
          Fenwick.set t.weights e (1.0 -. w);
          t.z <- Fenwick.total t.weights
        end
        else Pseudo_state.flip t.state e
      end
    end
end

let bit_for_bit_run ~seed ~conditions ~steps icm =
  let rng_a = Rng.create seed in
  let rng_b = Rng.create seed in
  let chain = Chain.create ~conditions rng_a icm in
  let reference = Seed_chain.create rng_b icm conditions in
  Alcotest.(check bool) "identical initial state" true
    (Pseudo_state.equal (Chain.state chain) reference.Seed_chain.state);
  for i = 1 to steps do
    Chain.step rng_a chain;
    Seed_chain.step rng_b reference;
    if not (Pseudo_state.equal (Chain.state chain) reference.Seed_chain.state)
    then Alcotest.failf "states diverge at step %d" i
  done;
  Alcotest.(check int) "same acceptance count"
    reference.Seed_chain.accepted
    (int_of_float
       (Chain.acceptance_rate chain *. float_of_int (Chain.steps_taken chain)
       +. 0.5));
  Alcotest.(check (float 0.0)) "same normaliser" reference.Seed_chain.z
    (Chain.normaliser chain)

let test_chain_bit_for_bit_conditioned () =
  let rng = Rng.create 515 in
  let nodes = 30 and edges = 120 in
  let g = Gen.gnm rng ~nodes ~edges in
  let probs =
    Array.init edges (fun e ->
        (* include clamped edges so determinism interacts with p=0/p=1 *)
        if e mod 17 = 0 then 1.0
        else if e mod 23 = 0 then 0.0
        else 0.1 +. (0.8 *. Rng.uniform rng))
  in
  let icm = Icm.create g probs in
  (* find a feasible positive pair and a negative condition *)
  let reach0 = Traverse.reachable_from g [ 0 ] in
  let dst = ref (-1) in
  Array.iteri (fun v r -> if r && v <> 0 && !dst < 0 then dst := v) reach0;
  Alcotest.(check bool) "test graph has a reachable pair" true (!dst >= 0);
  let conditions = Conditions.v [ (0, !dst, true) ] in
  bit_for_bit_run ~seed:616 ~conditions ~steps:4000 icm;
  (* mixed positive + negative conditions when feasible *)
  let neg = Conditions.v [ (0, !dst, true); (!dst, 0, false) ] in
  match Conditions.initial_state (Rng.create 717) icm neg with
  | None -> () (* infeasible on this topology; the positive run covered it *)
  | Some _ -> bit_for_bit_run ~seed:818 ~conditions:neg ~steps:4000 icm

let test_chain_bit_for_bit_unconditioned () =
  let rng = Rng.create 525 in
  let nodes = 20 and edges = 80 in
  let g = Gen.gnm rng ~nodes ~edges in
  let icm =
    Icm.create g (Array.init edges (fun _ -> 0.1 +. (0.8 *. Rng.uniform rng)))
  in
  bit_for_bit_run ~seed:626 ~conditions:Conditions.empty ~steps:4000 icm

(* ---------- estimator still matches the brute-force oracle ---------- *)

let test_estimator_with_workspace_vs_exact () =
  let rng = Rng.create 535 in
  let nodes = 7 and edges = 15 in
  let g = Gen.gnm rng ~nodes ~edges in
  let icm =
    Icm.create g (Array.init edges (fun _ -> 0.1 +. (0.8 *. Rng.uniform rng)))
  in
  let config = { Estimator.burn_in = 2000; thin = 10; samples = 6000 } in
  let truth = Iflow_core.Exact.brute_force_flow icm ~src:0 ~dst:6 in
  let estimate =
    Estimator.flow_probability (Rng.create 536) icm config ~src:0 ~dst:6
  in
  Alcotest.(check (float 0.03)) "flow vs exact" truth estimate

let () =
  Alcotest.run "iflow_reach"
    [
      ( "workspace",
        [
          Alcotest.test_case "matches Traverse" `Quick
            test_workspace_matches_traverse;
          Alcotest.test_case "reuse resets" `Quick test_workspace_reuse_resets;
          Alcotest.test_case "cheapest path prefers active" `Quick
            test_cheapest_path_prefers_zero_cost;
          Alcotest.test_case "cheapest path minimal" `Quick
            test_cheapest_path_cost_minimal;
        ] );
      ( "cache",
        [
          Alcotest.test_case "incremental vs fresh BFS" `Quick
            test_cache_vs_fresh_bfs;
          Alcotest.test_case "12k-flip long run" `Slow test_cache_long_run;
          Alcotest.test_case "rebuild" `Quick test_cache_rebuild;
        ] );
      ( "conditions",
        [
          Alcotest.test_case "satisfied_ws agrees" `Quick
            test_satisfied_ws_agrees;
        ] );
      ( "chain",
        [
          Alcotest.test_case "bit-for-bit (conditioned)" `Slow
            test_chain_bit_for_bit_conditioned;
          Alcotest.test_case "bit-for-bit (unconditioned)" `Slow
            test_chain_bit_for_bit_unconditioned;
        ] );
      ( "estimator",
        [
          Alcotest.test_case "workspace estimator vs exact" `Slow
            test_estimator_with_workspace_vs_exact;
        ] );
    ]
