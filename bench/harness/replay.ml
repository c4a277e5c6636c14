(* The traced run: replays each workload's own inputs in-process through
   the layers' public functions, with a span around every call (or
   every batch of cheap calls) recorded by the harness. It runs after
   every server has stopped, on one domain and one thread, so the
   allocation counts it reports are exact and repeat for a given seed.

   Timings are medians of ns per op over spans. [alloc_words] is the
   words allocated per op (minor heap plus direct major-heap
   allocations, from [Gc.counters] on this domain), net of the
   measurement's own allocation. *)

module Engine = Iflow_engine.Engine
module Query = Iflow_engine.Query
module Wire = Iflow_serve.Wire
module Bqueue = Iflow_serve.Bqueue
module Planner = Iflow_plan.Planner
module Chain = Iflow_mcmc.Chain
module Conditions = Iflow_mcmc.Conditions
module Reach = Iflow_graph.Reach
module Icm = Iflow_core.Icm
module Beta_icm = Iflow_core.Beta_icm
module Pseudo_state = Iflow_core.Pseudo_state
module Online = Iflow_stream.Online
module Snapshot = Iflow_stream.Snapshot
module Runner = Iflow_stream.Runner
module Drift = Iflow_stream.Drift

(* [Gc.minor_words] is exact in native code, where the minor count of
   [Gc.counters] only advances at minor collections; major minus
   promoted words is what was allocated directly in the major heap *)
let words () =
  let _, promoted, major = Gc.counters () in
  Gc.minor_words () +. major -. promoted

let overhead = ref 0.0

(* [f ()] in a span covering [ops] calls: (value, span, words per op) *)
let traced ?rid ?(ops = 1) name f =
  let w0 = words () in
  let v, s = Spans.with_ ?rid ~ops name f in
  let w1 = words () in
  (v, s, (w1 -. w0 -. !overhead) /. float_of_int ops)

let calibrate () =
  overhead := 0.0;
  let _, _, w = traced "harness.noop" ignore in
  overhead := w

(* [batches] spans of [ops] calls each: (median ns/op, words/op of the
   last batch) *)
let batched ~batches ~ops name f =
  let per = Array.make batches 0.0 and alloc = ref 0.0 in
  for b = 0 to batches - 1 do
    let (), s, w = traced ~ops name f in
    per.(b) <- Spans.per_op s;
    alloc := w
  done;
  (Summary.med per, !alloc)

let parse line =
  match Query.of_line (String.trim line) with
  | Ok q -> q
  | Error e -> failwith ("replay: bad query line: " ^ e)

let target q =
  match Query.kind q with
  | Query.Flow { src; dst } -> (src, dst)
  | Query.Community _ | Query.Joint _ -> failwith "replay: flow queries only"

let median_ns spans = Summary.med (Array.of_list (List.map (fun s -> float_of_int (Spans.dur s)) spans))

(* Inputs of all four workloads, as the rounds built them. *)
type inputs = {
  pa : Inputs.model;
  syn : Inputs.model;
  hot : string array;  (** serve_hot *)
  reader_hot : string array;  (** ingest_live's reader *)
  exact : string array;  (** query_exact's first requests *)
  mh : string array;  (** query_mh's first requests *)
  evidence : string array;  (** ingest_live's first events *)
}

let inputs ~seed (ms : Workload.models) =
  let pa, _ = Workload.model ms "pa" in
  let syn, _ = Workload.model ms "synthetic" in
  {
    pa;
    syn;
    hot = Inputs.tree_lines seed pa "hot" 128;
    reader_hot = Inputs.tree_lines seed pa "reader" 32;
    exact = Inputs.tree_lines seed pa "exact" 200;
    mh = Inputs.mh_lines seed syn 24;
    evidence = Inputs.evidence seed pa (20 * Gate.batch);
  }

let run ~seed (x : inputs) =
  calibrate ();
  let out = ref [] in
  let put name unit_ v = out := (name, unit_, v) :: !out in
  (* the recorder's own cost per span *)
  let noop, _ = batched ~batches:20 ~ops:1 "harness.noop_batch" (fun () ->
      for _ = 1 to 1000 do ignore (Spans.with_ "harness.noop" ignore) done)
  in
  Spans.drop "harness.noop";
  Spans.drop "harness.noop_batch";
  put "harness.span_cost_ns" "ns" (noop /. 1000.0);
  (* wire: serve_hot's requests decoded, their answers encoded *)
  let hot = Array.map String.trim x.hot in
  let queries = Array.map parse x.hot in
  let ns, w =
    batched ~batches:30 ~ops:(Array.length hot) "wire.decode" (fun () ->
        Array.iter (fun l -> ignore (Query.of_line l)) hot)
  in
  put "wire.decode.ns" "ns" ns;
  put "wire.decode.alloc_words" "words" w;
  let engine = Engine.create ~config:Gate.engine_config ~seed:Gate.engine_seed x.pa.Inputs.icm in
  let results = Array.map (Engine.query engine) queries in
  let ns, w =
    batched ~batches:30 ~ops:(Array.length results) "wire.encode" (fun () ->
        Array.iter
          (fun r -> ignore (Wire.result_line ~request_id:"r1-1" ~version:0 r))
          results)
  in
  put "wire.encode.ns" "ns" ns;
  put "wire.encode.alloc_words" "words" w;
  let q = Bqueue.create 64 in
  let ns, _ =
    batched ~batches:30 ~ops:1000 "serve.bqueue_hop" (fun () ->
        for i = 1 to 1000 do
          ignore (Bqueue.try_push q i);
          ignore (Bqueue.pop q)
        done)
  in
  put "serve.bqueue_hop.ns" "ns" ns;
  let ns, w =
    batched ~batches:30 ~ops:(Array.length queries) "engine.cache_hit" (fun () ->
        Array.iter (fun q -> ignore (Engine.query engine q)) queries)
  in
  put "engine.cache_hit.ns" "ns" ns;
  put "engine.cache_hit.alloc_words" "words" w;
  (* plan: certification on query_exact's pairs, refusal on query_mh's *)
  let works = ref [] and certified = ref [] in
  Array.iteri
    (fun i line ->
      let src, dst = target (parse line) in
      match
        traced ~rid:(Printf.sprintf "exact-%d" i) "plan.certify" (fun () ->
            Planner.plan x.pa.Inputs.icm ~targets:[ (src, dst) ] ~conditions:[])
      with
      | Ok e, s, _ ->
        works := float_of_int e.Planner.work :: !works;
        certified := s :: !certified
      | Error _, _, _ -> ())
    x.exact;
  put "plan.certify.ns.p50" "ns" (median_ns !certified);
  put "plan.work_units.mean" "count" (Summary.mean (Array.of_list !works));
  let refusals = ref [] in
  Array.iteri
    (fun i line ->
      let q = parse line in
      match
        traced ~rid:(Printf.sprintf "mh-%d" i) "plan.refusal" (fun () ->
            Planner.plan x.syn.Inputs.icm ~targets:[ target q ]
              ~conditions:(Query.conditions q))
      with
      | Error _, s, _ -> refusals := s :: !refusals
      | Ok _, _, _ -> ())
    x.mh;
  put "plan.refusal.ns.p50" "ns" (median_ns !refusals);
  put "plan.refusal_share" "fraction"
    (float_of_int (List.length !refusals) /. float_of_int (Array.length x.mh));
  (* engine.query on query_mh's requests; plan and sample are children *)
  let mh_engine =
    Engine.create ~config:Gate.engine_config ~seed:Gate.engine_seed x.syn.Inputs.icm
  in
  let rounds = ref [] and samples = ref [] and queries_mh = ref [] in
  Array.iteri
    (fun i line ->
      let q = parse line in
      let ph = Engine.phases () in
      let r, s, _ =
        traced ~rid:(Printf.sprintf "mh-%d" i) "engine.query" (fun () ->
            Engine.query ~phases:ph mh_engine q)
      in
      Spans.child ~parent:s ~name:"engine.plan" ~t0:s.Spans.t0 ~dur:ph.Engine.plan_ns;
      Spans.child ~parent:s ~name:"engine.sample"
        ~t0:(s.Spans.t0 + ph.Engine.plan_ns) ~dur:ph.Engine.sample_ns;
      queries_mh := s :: !queries_mh;
      match r.Engine.plan with
      | Engine.Plan_mh _ ->
        rounds := float_of_int ph.Engine.rounds :: !rounds;
        samples := float_of_int r.Engine.total_samples :: !samples
      | Engine.Plan_exact _ -> ())
    x.mh;
  put "engine.query.self_ns.p50" "ns"
    (Summary.med
       (Array.of_list (List.map (fun s -> float_of_int (Spans.self_ns s)) !queries_mh)));
  put "mcmc.rounds_per_query" "count" (Summary.mean (Array.of_list !rounds));
  put "mcmc.samples_per_query" "count" (Summary.mean (Array.of_list !samples));
  (* the chain on query_mh's model, unconditioned and with the first
     conditioned request's condition *)
  let rng = Inputs.stream seed "chain" in
  let condition =
    Array.fold_left
      (fun acc line -> match Query.conditions (parse line) with [] -> acc | c -> Some c)
      None x.mh
  in
  let c0 = Chain.create rng x.syn.Inputs.icm in
  let c1 =
    Chain.create ~conditions:(Conditions.v (Option.value condition ~default:[])) rng
      x.syn.Inputs.icm
  in
  let step name c =
    Chain.advance rng c 2000;
    batched ~batches:20 ~ops:2000 name (fun () -> Chain.advance rng c 2000)
  in
  let ns0, _ = step "mcmc.chain_step.c0" c0 in
  let ns1, w1 = step "mcmc.chain_step.c1" c1 in
  put "mcmc.chain_step.ns.c0" "ns" ns0;
  put "mcmc.chain_step.ns.c1" "ns" ns1;
  put "mcmc.chain_step.alloc_words" "words" w1;
  put "mcmc.accept_ratio" "fraction" (Chain.acceptance_rate c1);
  let cs = Chain.cache_stats c1 in
  let updates = cs.Reach.Cache.unchanged + cs.Reach.Cache.grew + cs.Reach.Cache.rebuilt in
  put "graph.reach_cache.rebuild_share" "fraction"
    (float_of_int cs.Reach.Cache.rebuilt /. float_of_int (max 1 updates));
  let g = Icm.graph x.syn.Inputs.icm in
  let ws = Reach.workspace (Icm.n_nodes x.syn.Inputs.icm) in
  let state = Chain.state c0 in
  let active e = Pseudo_state.get state e in
  let sources = Array.map (fun l -> fst (target (parse l))) x.mh in
  let ns, _ =
    batched ~batches:20 ~ops:(Array.length sources) "graph.reach_bfs" (fun () ->
        Array.iter (fun src -> Reach.bfs ws ~active g ~src) sources)
  in
  put "graph.reach_bfs.ns" "ns" ns;
  (* stream: ingest_live's evidence, one published version per 256 events *)
  let online = Online.create ~drift:Drift.default_config x.pa.Inputs.beta in
  let snapshot = Snapshot.create x.pa.Inputs.beta in
  let swap_engine = Engine.create ~config:Gate.engine_config ~seed:Gate.engine_seed x.pa.Inputs.icm in
  let reader = Array.map parse x.reader_hot in
  let apply = ref [] and apply_w = ref 0.0 in
  let publish = ref [] and publish_w = ref 0.0 in
  let digest = ref [] and expected = ref [] and swap = ref [] and evicted = ref 0 in
  let versions = Array.length x.evidence / Gate.batch in
  for v = 1 to versions do
    let (), s, w =
      traced ~ops:Gate.batch "stream.apply" (fun () ->
          for i = (v - 1) * Gate.batch to (v * Gate.batch) - 1 do
            ignore (Online.apply_line online x.evidence.(i))
          done)
    in
    apply := Spans.per_op s :: !apply;
    apply_w := !apply_w +. w;
    let m = Online.model online in
    let _, s, w =
      traced "stream.publish" (fun () ->
          Snapshot.publish snapshot m ~offset:(v * Gate.batch))
    in
    publish := float_of_int (Spans.dur s) /. 1e3 :: !publish;
    publish_w := !publish_w +. w;
    let _, s, _ = traced "core.digest" (fun () -> Beta_icm.digest m) in
    digest := float_of_int (Spans.dur s) /. 1e3 :: !digest;
    let _, s, _ = traced "core.expected_icm" (fun () -> Beta_icm.expected_icm m) in
    expected := float_of_int (Spans.dur s) /. 1e3 :: !expected;
    Array.iter (fun q -> ignore (Engine.query swap_engine q)) reader;
    let n, s, _ = traced "stream.swap" (fun () -> Snapshot.swap_into snapshot swap_engine) in
    swap := float_of_int (Spans.dur s) /. 1e3 :: !swap;
    evicted := !evicted + n
  done;
  let med l = Summary.med (Array.of_list l) in
  put "stream.apply.ns" "ns" (med !apply);
  put "stream.apply.alloc_words" "words" (!apply_w /. float_of_int versions);
  put "stream.publish.us" "us" (med !publish);
  put "stream.publish.alloc_words" "words" (!publish_w /. float_of_int versions);
  put "core.digest.us" "us" (med !digest);
  put "core.expected_icm.us" "us" (med !expected);
  put "stream.swap.us" "us" (med !swap);
  put "stream.swap.evictions" "count" (float_of_int !evicted /. float_of_int versions);
  (* ingest_live's read replay: one reader query per 4 events, as
     500 q/s beside 2,000 events/s *)
  let read_engine = Engine.create ~config:Gate.engine_config ~seed:Gate.engine_seed x.pa.Inputs.icm in
  let i = ref 0 in
  let source () =
    if !i >= Array.length x.evidence then None
    else begin
      if !i mod 4 = 0 then
        ignore (Engine.query read_engine reader.(!i / 4 mod Array.length reader));
      incr i;
      Some x.evidence.(!i - 1)
    end
  in
  ignore
    (Spans.with_ "engine.read_replay" (fun () ->
         Runner.run ~engine:read_engine Runner.default_config
           (Online.create ~drift:Drift.default_config x.pa.Inputs.beta)
           (Snapshot.create x.pa.Inputs.beta) source));
  let cs = Engine.cache_stats read_engine in
  put "engine.cache_hit_ratio" "fraction"
    (float_of_int cs.Iflow_engine.Lru.hits
    /. float_of_int (max 1 (cs.Iflow_engine.Lru.hits + cs.Iflow_engine.Lru.misses)));
  List.rev !out
