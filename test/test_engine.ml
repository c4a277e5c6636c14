open Iflow_engine
module Icm = Iflow_core.Icm
module Exact = Iflow_core.Exact
module Gen = Iflow_graph.Gen
module Digraph = Iflow_graph.Digraph
module Rng = Iflow_stats.Rng
module Fingerprint = Iflow_stats.Fingerprint

let check_close ?(eps = 1e-9) msg expected actual =
  Alcotest.(check (float eps)) msg expected actual

(* a brute-force-checkable 5-node model *)
let five_node_icm seed =
  let rng = Rng.create seed in
  let g = Gen.gnm rng ~nodes:5 ~edges:12 in
  Icm.create g (Array.init 12 (fun _ -> 0.1 +. (0.8 *. Rng.uniform rng)))

let test_engine_config =
  {
    Engine.default_config with
    Engine.chains = 4;
    burn_in = 300;
    thin = 5;
    round_samples = 250;
    max_samples = 8000;
    rhat_target = 1.05;
    mcse_target = 0.01;
  }

(* ---------- Fingerprint ---------- *)

let test_fingerprint_deterministic () =
  let digest xs =
    let fp = Fingerprint.create () in
    List.iter (Fingerprint.add_int fp) xs;
    Fingerprint.to_hex fp
  in
  Alcotest.(check string) "same input" (digest [ 1; 2; 3 ]) (digest [ 1; 2; 3 ]);
  Alcotest.(check bool) "order matters" true
    (digest [ 1; 2; 3 ] <> digest [ 3; 2; 1 ]);
  let fp = Fingerprint.create () in
  Fingerprint.add_string fp "ab";
  Fingerprint.add_string fp "c";
  let fp' = Fingerprint.create () in
  Fingerprint.add_string fp' "a";
  Fingerprint.add_string fp' "bc";
  Alcotest.(check bool) "string framing" true
    (Fingerprint.to_hex fp <> Fingerprint.to_hex fp');
  Alcotest.(check bool) "seed non-negative" true (Fingerprint.to_seed fp >= 0)

let test_model_digest () =
  let icm = five_node_icm 11 in
  Alcotest.(check string) "stable" (Icm.digest icm) (Icm.digest icm);
  let probs = Icm.probs icm in
  probs.(0) <- probs.(0) +. 1e-9;
  let perturbed = Icm.create (Icm.graph icm) probs in
  Alcotest.(check bool) "sensitive to probabilities" true
    (Icm.digest icm <> Icm.digest perturbed)

(* ---------- Jsonl ---------- *)

let test_jsonl_parse () =
  (match Jsonl.parse {|{"a":1,"b":[true,null,"x\n"],"c":-2.5e1}|} with
  | Error msg -> Alcotest.failf "parse failed: %s" msg
  | Ok v ->
    Alcotest.(check (option int)) "int field" (Some 1)
      (Option.bind (Jsonl.member "a" v) Jsonl.to_int);
    (match Option.bind (Jsonl.member "b" v) Jsonl.to_list with
    | Some [ Jsonl.Bool true; Jsonl.Null; Jsonl.Str "x\n" ] -> ()
    | _ -> Alcotest.fail "list field");
    (match Jsonl.member "c" v with
    | Some (Jsonl.Num f) -> check_close "number" (-25.0) f
    | _ -> Alcotest.fail "num field"));
  (match Jsonl.parse "{\"a\":}" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "accepted malformed object");
  match Jsonl.parse "1 trailing" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "accepted trailing garbage"

(* ---------- Query ---------- *)

let test_query_canonicalisation () =
  let a = Query.community ~src:0 ~sinks:[ 4; 2; 2 ] () in
  let b = Query.community ~src:0 ~sinks:[ 2; 4 ] () in
  Alcotest.(check bool) "sinks sorted and deduped" true (Query.equal a b);
  let c =
    Query.flow ~conditions:[ (1, 2, true); (0, 3, false) ] ~src:0 ~dst:4 ()
  in
  let d =
    Query.flow ~conditions:[ (0, 3, false); (1, 2, true) ] ~src:0 ~dst:4 ()
  in
  Alcotest.(check string) "condition order irrelevant" (Query.key c)
    (Query.key d);
  Alcotest.check_raises "empty sinks" (Invalid_argument "Query: empty sink list")
    (fun () -> ignore (Query.community ~src:0 ~sinks:[] ()))

let test_query_of_line () =
  (match Query.of_line {|{"type":"flow","src":1,"dst":3}|} with
  | Ok q -> Alcotest.(check string) "flow" "flow 1 3" (Query.key q)
  | Error msg -> Alcotest.failf "flow: %s" msg);
  (match
     Query.of_line
       {|{"type":"joint","flows":[[1,3],[0,2]],"conditions":[[0,1,"+"],[2,3,false]]}|}
   with
  | Ok q ->
    Alcotest.(check string) "joint" "joint 0>2 1>3 | 0:1:+ 2:3:-" (Query.key q)
  | Error msg -> Alcotest.failf "joint: %s" msg);
  (match Query.of_line {|{"type":"flow","src":1}|} with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "accepted flow without dst");
  match Query.of_line {|{"type":"teleport","src":1,"dst":2}|} with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "accepted unknown type"

(* ---------- Lru ---------- *)

let test_lru_eviction_order () =
  let c = Lru.create 2 in
  Lru.add c "a" 1;
  Lru.add c "b" 2;
  Alcotest.(check (option int)) "a present" (Some 1) (Lru.find c "a");
  (* "b" is now least-recently-used; adding "c" evicts it *)
  Lru.add c "c" 3;
  Alcotest.(check (option int)) "b evicted" None (Lru.find c "b");
  Alcotest.(check (option int)) "a survives" (Some 1) (Lru.find c "a");
  Alcotest.(check (option int)) "c present" (Some 3) (Lru.find c "c");
  let s = Lru.stats c in
  Alcotest.(check int) "hits" 3 s.Lru.hits;
  Alcotest.(check int) "misses" 1 s.Lru.misses;
  Alcotest.(check int) "evictions" 1 s.Lru.evictions;
  Alcotest.(check int) "entries" 2 s.Lru.entries

let test_lru_zero_capacity () =
  let c = Lru.create 0 in
  Lru.add c "a" 1;
  Alcotest.(check (option int)) "disabled" None (Lru.find c "a");
  Alcotest.(check int) "no entries" 0 (Lru.length c)

(* ---------- Diagnostics ---------- *)

let iid_chain rng n = Array.init n (fun _ -> Rng.uniform rng)

let test_diagnostics_iid_chains () =
  let rng = Rng.create 101 in
  let chains = Array.init 4 (fun _ -> iid_chain rng 2000) in
  let s = Diagnostics.summary chains in
  Alcotest.(check bool) "rhat near 1" true (s.Diagnostics.rhat < 1.02);
  Alcotest.(check bool) "ess near n" true
    (s.Diagnostics.ess > 0.5 *. 8000.0 && s.Diagnostics.ess <= 1.05 *. 8000.0);
  (* iid uniform: sd = sqrt(1/12), so MCSE ~ sd / sqrt(ess) *)
  Alcotest.(check bool) "mcse sane" true
    (s.Diagnostics.mcse > 0.001 && s.Diagnostics.mcse < 0.01);
  check_close ~eps:0.02 "mean" 0.5 s.Diagnostics.mean

let test_diagnostics_divergent_chains () =
  let rng = Rng.create 102 in
  let chains =
    Array.init 4 (fun i ->
        let offset = float_of_int i in
        Array.init 500 (fun _ -> offset +. Rng.uniform rng))
  in
  let r = Diagnostics.split_rhat chains in
  Alcotest.(check bool) "rhat far above 1" true (r > 1.5)

let test_diagnostics_constant_chains () =
  let same = Array.init 3 (fun _ -> Array.make 100 1.0) in
  check_close "identical constants converge" 1.0 (Diagnostics.split_rhat same);
  let split = [| Array.make 100 1.0; Array.make 100 0.0 |] in
  Alcotest.(check bool) "disagreeing constants diverge" true
    (Diagnostics.split_rhat split = Float.infinity);
  Alcotest.(check bool) "too little data is nan" true
    (Float.is_nan (Diagnostics.split_rhat [| [| 1.0 |] |]))

let test_diagnostics_drift_detected () =
  (* a strongly trending chain: split halves disagree, rhat > 1 *)
  let chains =
    [| Array.init 1000 (fun i -> float_of_int i /. 1000.0) |]
  in
  Alcotest.(check bool) "drift inflates split-rhat" true
    (Diagnostics.split_rhat chains > 1.5)

(* ---------- Engine vs brute force ---------- *)

let test_engine_matches_exact () =
  let icm = five_node_icm 11 in
  (* the sampler is the subject here: this cone's only cycles run
     through dst, so the planner would certify it *)
  let engine =
    Engine.create
      ~config:{ test_engine_config with Engine.planner = false }
      ~seed:21 icm
  in
  let truth = Exact.brute_force_flow icm ~src:0 ~dst:4 in
  let r = Engine.query engine (Query.flow ~src:0 ~dst:4 ()) in
  check_close ~eps:0.03 "flow matches brute force" truth r.Engine.estimate;
  Alcotest.(check bool) "rhat reported near 1" true (r.Engine.rhat < 1.05);
  Alcotest.(check bool) "ess positive" true (r.Engine.ess > 100.0);
  Alcotest.(check bool) "not from cache" false r.Engine.cached;
  let planned =
    Engine.query
      (Engine.create ~config:test_engine_config ~seed:21 icm)
      (Query.flow ~src:0 ~dst:4 ())
  in
  (match planned.Engine.plan with
  | Engine.Plan_exact _ -> ()
  | Engine.Plan_mh _ -> Alcotest.fail "certified cone sent to MH");
  check_close ~eps:1e-12 "planner's answer is exact" truth
    planned.Engine.estimate

let test_engine_conditional_matches_exact () =
  let icm = five_node_icm 11 in
  let engine = Engine.create ~config:test_engine_config ~seed:22 icm in
  let conditions = [ (0, 2, true) ] in
  let truth = Exact.brute_force_conditional icm ~conditions ~src:0 ~dst:4 in
  let r = Engine.query engine (Query.flow ~conditions ~src:0 ~dst:4 ()) in
  check_close ~eps:0.03 "conditional matches brute force" truth
    r.Engine.estimate

let test_engine_community_matches_exact () =
  let icm = five_node_icm 11 in
  let engine = Engine.create ~config:test_engine_config ~seed:23 icm in
  let truth = Exact.brute_force_community icm ~src:0 ~sinks:[ 3; 4 ] in
  let r = Engine.query engine (Query.community ~src:0 ~sinks:[ 3; 4 ] ()) in
  check_close ~eps:0.03 "community matches brute force" truth
    r.Engine.estimate

(* ---------- Determinism ---------- *)

let test_engine_deterministic () =
  let icm = five_node_icm 12 in
  let q = Query.flow ~src:0 ~dst:4 () in
  let run () =
    let engine = Engine.create ~config:test_engine_config ~seed:31 icm in
    Engine.query engine q
  in
  let a = run () and b = run () in
  Alcotest.(check bool) "bit-for-bit reproducible" true
    (a.Engine.estimate = b.Engine.estimate
    && a.Engine.rhat = b.Engine.rhat
    && a.Engine.total_samples = b.Engine.total_samples)

let test_engine_order_invariant () =
  let icm = five_node_icm 12 in
  let q1 = Query.flow ~src:0 ~dst:4 () in
  let q2 = Query.flow ~src:1 ~dst:3 () in
  let run qs =
    let engine = Engine.create ~config:test_engine_config ~seed:33 icm in
    List.map (fun q -> (Engine.query engine q).Engine.estimate) qs
  in
  match (run [ q1; q2 ], run [ q2; q1 ]) with
  | [ a1; a2 ], [ b2; b1 ] ->
    Alcotest.(check bool) "per-query seeds ignore arrival order" true
      (a1 = b1 && a2 = b2)
  | _ -> Alcotest.fail "wrong result arity"

(* ---------- Cache ---------- *)

let test_engine_cache_hit () =
  let icm = five_node_icm 13 in
  let engine = Engine.create ~config:test_engine_config ~seed:41 icm in
  let q = Query.flow ~src:0 ~dst:4 () in
  let first = Engine.query engine q in
  let second = Engine.query engine q in
  Alcotest.(check bool) "first is computed" false first.Engine.cached;
  Alcotest.(check bool) "second is served from cache" true second.Engine.cached;
  Alcotest.(check bool) "identical estimate" true
    (first.Engine.estimate = second.Engine.estimate
    && first.Engine.total_samples = second.Engine.total_samples);
  let s = Engine.cache_stats engine in
  Alcotest.(check int) "one hit" 1 s.Lru.hits;
  Alcotest.(check int) "one miss" 1 s.Lru.misses

let test_engine_batch_dedups () =
  let icm = five_node_icm 13 in
  let engine = Engine.create ~config:test_engine_config ~seed:42 icm in
  let q = Query.flow ~src:0 ~dst:4 () in
  let q' = Query.flow ~src:1 ~dst:3 () in
  let results = List.map (Engine.query engine) [ q; q'; q ] in
  (match results with
  | [ a; b; c ] ->
    Alcotest.(check bool) "dup flagged cached" true c.Engine.cached;
    Alcotest.(check bool) "dup identical" true
      (a.Engine.estimate = c.Engine.estimate);
    Alcotest.(check bool) "others computed" true
      ((not a.Engine.cached) && not b.Engine.cached)
  | _ -> Alcotest.fail "wrong result arity");
  let s = Engine.cache_stats engine in
  Alcotest.(check int) "two misses" 2 s.Lru.misses;
  Alcotest.(check int) "one dedup hit" 1 s.Lru.hits

let test_engine_cache_disabled_retains_nothing () =
  let icm = five_node_icm 13 in
  let config = { test_engine_config with Engine.cache_capacity = 0 } in
  let engine = Engine.create ~config ~seed:43 icm in
  let q = Query.flow ~src:0 ~dst:4 () in
  ignore (Engine.query engine q);
  let r = Engine.query engine q in
  Alcotest.(check bool) "no retention without capacity" false r.Engine.cached

(* ---------- Validation ---------- *)

let test_engine_validation () =
  let icm = five_node_icm 14 in
  Alcotest.check_raises "bad config"
    (Invalid_argument "Engine: bad config: chains must be >= 1 (got 0)")
    (fun () ->
      ignore
        (Engine.create
           ~config:{ test_engine_config with Engine.chains = 0 }
           ~seed:1 icm));
  let engine = Engine.create ~config:test_engine_config ~seed:1 icm in
  match Engine.query engine (Query.flow ~src:0 ~dst:99 ()) with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "out-of-range query accepted"

(* A condition set no state meets is the query's fault, not a lost
   chain. [(u, u, false)] is refused when the query is built (a source
   always holds its own object); a positive condition on an unreachable
   pair ends the query with [Invalid_argument] and counts no failed
   chain. With the planner, its verdict ends the query after zero
   rounds, before any chain steps; without it, the chain
   start's bounded repair fails. *)
let test_engine_infeasible_conditions () =
  Alcotest.check_raises "self-negative refused"
    (Invalid_argument
       "Conditions.v: 3 ~> 3 can never be false (a source always holds its \
        own object)")
    (fun () -> ignore (Query.flow ~conditions:[ (3, 3, false) ] ~src:0 ~dst:1 ()));
  (* 0 -> 1 -> 2 and 3 -> 0: nothing reaches 3 *)
  let g = Digraph.of_edges ~nodes:4 [ (0, 1); (1, 2); (3, 0) ] in
  let icm = Icm.create g [| 0.5; 0.5; 0.5 |] in
  let failed = Iflow_obs.Metrics.counter "iflow_engine_failed_chains_total" in
  let steps = Iflow_obs.Metrics.counter "iflow_mcmc_steps_total" in
  List.iter
    (fun planner ->
      let engine =
        Engine.create
          ~config:{ test_engine_config with Engine.planner }
          ~seed:3 icm
      in
      let before = Iflow_obs.Metrics.counter_value failed in
      let steps_before = Iflow_obs.Metrics.counter_value steps in
      let ph = Engine.phases () in
      (match
         Engine.query ~phases:ph engine
           (Query.flow ~conditions:[ (0, 3, true) ] ~src:0 ~dst:2 ())
       with
      | _ -> Alcotest.fail "answered under infeasible conditions"
      | exception Engine.Chains_failed _ -> Alcotest.fail "reported as chain faults"
      | exception Invalid_argument msg ->
        Alcotest.(check bool) "names the query" true
          (String.starts_with ~prefix:"query flow 0 2" msg);
        if planner then
          Alcotest.(check string) "names the condition"
            "query flow 0 2 | 0:3:+: condition 0:3:+ has probability 0" msg);
      if planner then begin
        Alcotest.(check int) "zero rounds" 0 ph.Engine.rounds;
        Alcotest.(check int) "no chain stepped" steps_before
          (Iflow_obs.Metrics.counter_value steps)
      end;
      Alcotest.(check int) "no chain counted lost" before
        (Iflow_obs.Metrics.counter_value failed);
      let r = Engine.query engine (Query.flow ~src:0 ~dst:2 ()) in
      Alcotest.(check bool) "the engine answers on" true
        (Float.is_finite r.Engine.estimate))
    [ true; false ]

(* ---------- Direct cascades ---------- *)

(* one round of [n] draws over two streams, then stop *)
let direct_config n =
  {
    test_engine_config with
    Engine.chains = 2;
    round_samples = n / 2;
    max_samples = n;
    cache_capacity = 0;
  }

(* Bernstein's inequality: the mean of [n] i.i.d. draws in [0, 1] with
   variance p (1 - p) strays more than [t] from [p] with probability at
   most 2 exp (-n t^2 / (2 p (1 - p) + 2 t / 3)); this is the [t] that
   makes that bound [delta]. *)
let bernstein ~n ~delta p =
  let l = log (2.0 /. delta) and n = float_of_int n in
  ((l /. 3.0) +. sqrt ((l *. l /. 9.0) +. (2.0 *. n *. p *. (1.0 -. p) *. l)))
  /. n

(* Pr(a ~> b and c ~> d) = Pr(a ~> b | c ~> d) Pr(c ~> d) *)
let brute_force_joint icm (a, b) (c, d) =
  let pc = Exact.brute_force_flow icm ~src:c ~dst:d in
  if pc = 0.0 then 0.0
  else
    Exact.brute_force_conditional icm ~conditions:[ (c, d, true) ] ~src:a ~dst:b
    *. pc

(* Generated graphs of at most 12 edges, 1 edge in 6 at p = 0 or p = 1,
   with a flow, a community and a joint query each, answered by the
   planner-on engine from 8,000 draws. An exact plan must equal
   enumeration; a direct answer must be within the Bernstein bound at
   delta = 1e-6 per comparison (450 comparisons: a correct sampler
   fails the run with probability below 5e-4, and the seed is fixed),
   and exactly 0 or 1 where enumeration is. *)
let prop_direct_matches_brute_force =
  let n = 8000 in
  QCheck.Test.make ~count:150 ~name:"direct answers match brute force"
    QCheck.(int_range 0 100_000)
    (fun seed ->
      let rng = Rng.create seed in
      let nodes = 3 + Rng.int rng 4 in
      let edges = 1 + Rng.int rng (min 12 (nodes * (nodes - 1))) in
      let g = Gen.gnm rng ~nodes ~edges in
      let icm =
        Icm.create g
          (Array.init edges (fun _ ->
               match Rng.int rng 12 with
               | 0 -> 0.0
               | 1 -> 1.0
               | _ -> 0.05 +. (0.9 *. Rng.uniform rng)))
      in
      let node () = Rng.int rng nodes in
      let a = node () and b = node () and c = node () and d = node () in
      let engine = Engine.create ~config:(direct_config n) ~seed icm in
      List.for_all
        (fun (q, truth) ->
          let r = Engine.query engine q in
          let est = r.Engine.estimate in
          match r.Engine.plan with
          | Engine.Plan_exact _ ->
            Float.abs (est -. truth) <= 1e-9
            || QCheck.Test.fail_reportf "%s: exact %g, enumeration %g"
                 (Query.key q) est truth
          | Engine.Plan_mh { sampler = Engine.Mh; _ } ->
            QCheck.Test.fail_reportf "%s: unconditioned query sent to MH"
              (Query.key q)
          | Engine.Plan_mh { sampler = Engine.Direct; _ } ->
            let ok =
              if truth = 0.0 || truth = 1.0 then est = truth
              else Float.abs (est -. truth) <= bernstein ~n ~delta:1e-6 truth
            in
            (ok && r.Engine.total_samples = n)
            || QCheck.Test.fail_reportf "%s: direct %g from %d draws, \
                                         enumeration %g"
                 (Query.key q) est r.Engine.total_samples truth)
        [
          (Query.flow ~src:a ~dst:b (), Exact.brute_force_flow icm ~src:a ~dst:b);
          ( Query.community ~src:a ~sinks:[ b; c ] (),
            Exact.brute_force_community icm ~src:a ~sinks:[ b; c ] );
          ( Query.joint ~flows:[ (a, b); (c, d) ] (),
            brute_force_joint icm (a, b) (c, d) );
        ])

(* the bottleneck 0 -> 1 -> {2, 3} -> 4: refused as an unsound join *)
let bottleneck_icm () =
  Icm.create
    (Digraph.of_edges ~nodes:5 [ (0, 1); (1, 2); (1, 3); (2, 4); (3, 4) ])
    [| 0.9; 0.6; 0.7; 0.8; 0.5 |]

let test_direct_domains_invariant () =
  let icm = bottleneck_icm () in
  let run domains q =
    let config = { test_engine_config with Engine.domains = Some domains } in
    Engine.query (Engine.create ~config ~seed:61 icm) q
  in
  List.iter
    (fun q ->
      let a = run 1 q and b = run 3 q in
      (match a.Engine.plan with
      | Engine.Plan_mh { sampler = Engine.Direct; _ } -> ()
      | _ -> Alcotest.failf "%s not answered by direct cascades" (Query.key q));
      Alcotest.(check bool)
        (Query.key q ^ " independent of domains")
        true
        (Int64.equal
           (Int64.bits_of_float a.Engine.estimate)
           (Int64.bits_of_float b.Engine.estimate)
        && Int64.equal
             (Int64.bits_of_float a.Engine.mcse)
             (Int64.bits_of_float b.Engine.mcse)
        && a.Engine.total_samples = b.Engine.total_samples
        && a.Engine.plan = b.Engine.plan))
    [
      Query.flow ~src:0 ~dst:4 ();
      Query.community ~src:0 ~sinks:[ 2; 4 ] ();
      Query.joint ~flows:[ (0, 4); (1, 4) ] ();
    ]

(* After a warm-up, 20,000 draws allocate no word, for each kind *)
let test_direct_draw_allocates_nothing () =
  let rng = Rng.create 71 in
  let nodes = 2000 and edges = 4000 in
  let g = Gen.gnm rng ~nodes ~edges in
  let icm =
    Icm.create g (Array.init edges (fun _ -> 0.1 +. (0.5 *. Rng.uniform rng)))
  in
  let fw = Iflow_core.Forward.create icm in
  List.iter
    (fun q ->
      let rng = Rng.create 72 in
      for _ = 1 to 2000 do
        ignore (Query.draw fw rng q)
      done;
      let w0 = Gc.minor_words () in
      for _ = 1 to 20_000 do
        ignore (Query.draw fw rng q)
      done;
      check_close (Query.key q) 0.0 (Gc.minor_words () -. w0))
    [
      Query.flow ~src:0 ~dst:1 ();
      Query.community ~src:0 ~sinks:[ 1; 2; 3 ] ();
      Query.joint ~flows:[ (0, 1); (2, 3); (4, 5) ] ();
    ]

(* ---------- Deadlines & cancellation ---------- *)

module Cancel = Iflow_mcmc.Cancel

(* mcse_target is unreachable, so the adaptive loop never converges on
   its own — only a tripped cancel token (or max_samples, set far out
   of reach) can stop it. Rounds are tiny so round boundaries come up
   every fraction of a millisecond. *)
let never_converge =
  {
    test_engine_config with
    Engine.planner = false;
    chains = 2;
    burn_in = 20;
    thin = 1;
    round_samples = 20;
    max_samples = 10_000_000;
    rhat_target = 1.0;
    mcse_target = 1e-300;
  }

let test_engine_armed_token_bit_identity () =
  (* a live token with ample budget must not perturb the answer: the
     cancellation checks read the clock but never the RNG *)
  let icm = five_node_icm 12 in
  let q = Query.flow ~src:0 ~dst:4 () in
  let bare =
    let engine = Engine.create ~config:test_engine_config ~seed:31 icm in
    Engine.query engine q
  in
  let armed =
    let engine = Engine.create ~config:test_engine_config ~seed:31 icm in
    let cancel = Cancel.create 3_600_000 in
    Engine.query ~cancel engine q
  in
  Alcotest.(check bool) "armed token does not perturb the answer" true
    (bare.Engine.estimate = armed.Engine.estimate
    && bare.Engine.rhat = armed.Engine.rhat
    && bare.Engine.mcse = armed.Engine.mcse
    && bare.Engine.total_samples = armed.Engine.total_samples);
  Alcotest.(check bool) "converged answers are not partial" false
    armed.Engine.partial

let test_engine_pre_expired_sheds_before_sampling () =
  let icm = five_node_icm 12 in
  let config = { test_engine_config with Engine.planner = false } in
  let engine = Engine.create ~config ~seed:31 icm in
  let q = Query.flow ~src:0 ~dst:4 () in
  (* deadline 1 ms after the monotonic epoch: expired long ago *)
  let expired () = Cancel.create ~start_ns:0 1 in
  let ph = Engine.phases () in
  (* no partial answer can come from zero rounds *)
  (match Engine.query ~phases:ph ~cancel:(expired ()) engine q with
  | _ -> Alcotest.fail "expired token still sampled"
  | exception Engine.Deadline_exceeded _ -> ());
  Alcotest.(check int) "no sampling rounds recorded" 0 ph.Engine.rounds

let test_engine_partial_answer_not_cached () =
  let icm = five_node_icm 14 in
  let engine = Engine.create ~config:never_converge ~seed:51 icm in
  let q = Query.flow ~src:0 ~dst:4 () in
  let budget_ms = 150 in
  let r = Engine.query ~cancel:(Cancel.create budget_ms) engine q in
  Alcotest.(check bool) "flagged partial" true r.Engine.partial;
  Alcotest.(check bool) "pooled at least one full round" true
    (r.Engine.total_samples
    >= never_converge.Engine.chains * never_converge.Engine.round_samples);
  (* partial answers are never cached: ask again and it samples again *)
  let r2 = Engine.query ~cancel:(Cancel.create budget_ms) engine q in
  Alcotest.(check bool) "not served from a cache" false r2.Engine.cached;
  Alcotest.(check bool) "still partial" true r2.Engine.partial

let test_engine_deadline_6k_uncached () =
  (* the acceptance bound: a 6000-node uncached MH query under a 20 ms
     deadline must come back typed — partial or Deadline_exceeded —
     within 2x the deadline *)
  let rng = Rng.create 99 in
  let nodes = 6000 and edges = 24_000 in
  let g = Gen.gnm rng ~nodes ~edges in
  let icm =
    Icm.create g (Array.init edges (fun _ -> 0.05 +. (0.3 *. Rng.uniform rng)))
  in
  (* burn-in alone costs tens of seconds at this size: the only way
     out inside the budget is the mid-burn-in cancellation check *)
  let config =
    {
      never_converge with
      Engine.cache_capacity = 0;
      burn_in = 10_000_000;
      thin = 2;
      round_samples = 250;
    }
  in
  let engine = Engine.create ~config ~seed:7 icm in
  let src =
    let rec first n = if Digraph.out_degree g n > 0 then n else first (n + 1) in
    first 0
  in
  let dst = List.hd (Digraph.out_neighbours g src) in
  let q = Query.flow ~src ~dst () in
  let deadline_ms = 20 in
  let t0 = Unix.gettimeofday () in
  let cancel = Cancel.create deadline_ms in
  (match Engine.query ~cancel engine q with
  | r -> Alcotest.(check bool) "answer is flagged partial" true r.Engine.partial
  | exception Engine.Deadline_exceeded _ -> ());
  let elapsed_ms = (Unix.gettimeofday () -. t0) *. 1e3 in
  Alcotest.(check bool)
    (Printf.sprintf "typed answer within 2x the deadline (took %.1f ms)"
       elapsed_ms)
    true
    (elapsed_ms <= 2.0 *. float_of_int deadline_ms)

let () =
  Alcotest.run "iflow_engine"
    [
      ( "fingerprint",
        [
          Alcotest.test_case "deterministic" `Quick test_fingerprint_deterministic;
          Alcotest.test_case "model digest" `Quick test_model_digest;
        ] );
      ( "jsonl",
        [ Alcotest.test_case "parse" `Quick test_jsonl_parse ] );
      ( "query",
        [
          Alcotest.test_case "canonicalisation" `Quick test_query_canonicalisation;
          Alcotest.test_case "of_line" `Quick test_query_of_line;
        ] );
      ( "lru",
        [
          Alcotest.test_case "eviction order" `Quick test_lru_eviction_order;
          Alcotest.test_case "zero capacity" `Quick test_lru_zero_capacity;
        ] );
      ( "diagnostics",
        [
          Alcotest.test_case "iid chains" `Quick test_diagnostics_iid_chains;
          Alcotest.test_case "divergent chains" `Quick test_diagnostics_divergent_chains;
          Alcotest.test_case "constant chains" `Quick test_diagnostics_constant_chains;
          Alcotest.test_case "drift detected" `Quick test_diagnostics_drift_detected;
        ] );
      ( "engine",
        [
          Alcotest.test_case "flow vs exact" `Slow test_engine_matches_exact;
          Alcotest.test_case "conditional vs exact" `Slow
            test_engine_conditional_matches_exact;
          Alcotest.test_case "community vs exact" `Slow
            test_engine_community_matches_exact;
          Alcotest.test_case "deterministic" `Slow test_engine_deterministic;
          Alcotest.test_case "order invariant" `Slow test_engine_order_invariant;
          Alcotest.test_case "cache hit" `Slow test_engine_cache_hit;
          Alcotest.test_case "batch dedups through the cache" `Slow
            test_engine_batch_dedups;
          Alcotest.test_case "cache disabled" `Slow
            test_engine_cache_disabled_retains_nothing;
          Alcotest.test_case "validation" `Quick test_engine_validation;
          Alcotest.test_case "infeasible conditions are a bad query" `Quick
            test_engine_infeasible_conditions;
        ] );
      ( "direct",
        [
          QCheck_alcotest.to_alcotest ~rand:(Random.State.make [| 0 |])
            prop_direct_matches_brute_force;
          Alcotest.test_case "independent of domains" `Quick
            test_direct_domains_invariant;
          Alcotest.test_case "a draw allocates nothing" `Quick
            test_direct_draw_allocates_nothing;
        ] );
      ( "deadlines",
        [
          Alcotest.test_case "armed token bit-identity" `Slow
            test_engine_armed_token_bit_identity;
          Alcotest.test_case "pre-expired sheds before sampling" `Quick
            test_engine_pre_expired_sheds_before_sampling;
          Alcotest.test_case "partial answer, never cached" `Slow
            test_engine_partial_answer_not_cached;
          Alcotest.test_case "6k nodes, 20ms deadline, typed in 2x" `Slow
            test_engine_deadline_6k_uncached;
        ] );
    ]
