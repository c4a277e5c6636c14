module Icm = Iflow_core.Icm
module Pseudo_state = Iflow_core.Pseudo_state
module Fenwick = Iflow_stats.Fenwick
module Reach = Iflow_graph.Reach
module Metrics = Iflow_obs.Metrics

(* The hot loop never touches these — [advance] flushes deltas from the
   chain's plain fields once per call. *)
let m_steps = Metrics.counter ~help:"MH proposals attempted" "iflow_mcmc_steps_total"
let m_accepts = Metrics.counter ~help:"MH proposals accepted" "iflow_mcmc_accepts_total"

let m_accept_rate =
  Metrics.gauge ~help:"Lifetime acceptance rate of the most recently flushed chain"
    "iflow_mcmc_acceptance_rate"

let m_reach_unchanged =
  Metrics.counter ~help:"Reach cache updates classified O(1) unchanged"
    "iflow_mcmc_reach_unchanged_total"

let m_reach_grown =
  Metrics.counter ~help:"Reach cache updates repaired by incremental growth"
    "iflow_mcmc_reach_grown_total"

let m_reach_rebuilt =
  Metrics.counter ~help:"Reach cache updates repaired by full recompute"
    "iflow_mcmc_reach_rebuilt_total"

let m_reach_undone =
  Metrics.counter ~help:"Reach cache updates reverted after a rejected proposal"
    "iflow_mcmc_reach_undo_total"

type t = {
  icm : Icm.t;
  conditions : Conditions.t;
  state : Pseudo_state.t;
  weights : Fenwick.t; (* proposal weights; its total is Z *)
  mutable steps : int;
  mutable accepted : int;
  mutable since_rebuild : int;
  ws : Reach.workspace; (* per-chain BFS scratch, shared with estimators *)
  active : int -> bool; (* preallocated view of [state]'s edge activity *)
  caches : Reach.Cache.t array; (* one reachable set per condition source *)
  checks : (int * int * bool) array; (* (cache index, dst, required) *)
  undos : Reach.Cache.update array; (* per-cache receipt of the last flip *)
  (* high-water marks of what has already been flushed to the obs
     registry, so [advance] adds exact deltas *)
  mutable fl_steps : int;
  mutable fl_accepted : int;
  fl_reach : int array; (* indexed like [reach_metrics] *)
}

(* Weight of proposing a flip of edge e: probability of the activity the
   edge would take after the flip. *)
let proposal_weight icm state e =
  let p = Icm.prob icm e in
  if Pseudo_state.get state e then 1.0 -. p else p

let rebuild_every = 1 lsl 16

let create ?(conditions = Conditions.empty) ?init rng icm =
  let state =
    match init with
    | Some s ->
      if Pseudo_state.n_edges s <> Icm.n_edges icm then
        invalid_arg "Chain.create: init size mismatch";
      if Pseudo_state.log_prob icm s = neg_infinity then
        invalid_arg "Chain.create: init has zero probability";
      if not (Conditions.satisfied icm s conditions) then
        invalid_arg "Chain.create: init violates conditions";
      Pseudo_state.copy s
    | None ->
      (match Conditions.initial_state rng icm conditions with
      | Some s -> s
      | None ->
        invalid_arg "Chain.create: could not satisfy flow conditions")
  in
  let weights =
    Fenwick.of_array
      (Array.init (Icm.n_edges icm) (proposal_weight icm state))
  in
  let ws = Reach.workspace (Icm.n_nodes icm) in
  let active = Pseudo_state.get state in
  let g = Icm.graph icm in
  let srcs = Array.of_list (Conditions.sources conditions) in
  let caches =
    Array.map (fun u -> Reach.Cache.create ws g ~source:u ~active) srcs
  in
  let index_of u =
    let rec go i = if srcs.(i) = u then i else go (i + 1) in
    go 0
  in
  let checks =
    Array.of_list
      (List.map
         (fun (u, v, req) -> (index_of u, v, req))
         (Conditions.to_list conditions))
  in
  {
    icm;
    conditions;
    state;
    weights;
    steps = 0;
    accepted = 0;
    since_rebuild = 0;
    ws;
    active;
    caches;
    checks;
    undos = Array.make (Array.length caches) Reach.Cache.Unchanged;
    fl_steps = 0;
    fl_accepted = 0;
    fl_reach = Array.make 4 0;
  }

let state t = t.state
let workspace t = t.ws

(* The conditioned indicator check after edge [e] flipped: update every
   per-source cache incrementally (O(1) for flips the set cannot see,
   incremental BFS for growth, a workspace-reusing recompute only when a
   BFS-tree edge was cut), then read the condition verdicts straight off
   the caches. On violation the updates are reverted — Grew in O(newly
   marked), Rebuilt in O(1) (double-buffer swap) — so rejected proposals
   leave no trace and allocate nothing. *)
let conditions_hold_after_flip t e =
  let nc = Array.length t.caches in
  for i = 0 to nc - 1 do
    t.undos.(i) <- Reach.Cache.update t.caches.(i) ~active:t.active ~edge:e
  done;
  let ok = ref true in
  for j = 0 to Array.length t.checks - 1 do
    let ci, v, req = t.checks.(j) in
    if Reach.Cache.reaches t.caches.(ci) v <> req then ok := false
  done;
  if not !ok then
    for i = nc - 1 downto 0 do
      Reach.Cache.undo t.caches.(i) t.undos.(i)
    done;
  !ok

(* Every float of a step stays inside [Fenwick.propose_complement]
   (the draw, [Z], [Z'] and the Hastings test); what crosses into this
   module is an edge id or -1, so a step allocates nothing. *)
let step rng t =
  t.steps <- t.steps + 1;
  let e = Fenwick.propose_complement rng t.weights in
  if e >= 0 then begin
    Pseudo_state.flip t.state e;
    if Array.length t.caches = 0 || conditions_hold_after_flip t e then begin
      t.accepted <- t.accepted + 1;
      (* flipping e swaps its weight between p and 1 - p *)
      Fenwick.complement t.weights e;
      t.since_rebuild <- t.since_rebuild + 1;
      if t.since_rebuild >= rebuild_every then begin
        Fenwick.rebuild t.weights;
        t.since_rebuild <- 0
      end
    end
    else
      (* Candidate violates the conditions: indicator 0, reject. *)
      Pseudo_state.flip t.state e
  end

let steps_taken t = t.steps

let acceptance_rate t =
  if t.steps = 0 then 0.0 else float_of_int t.accepted /. float_of_int t.steps

let cache_stats t =
  Array.fold_left
    (fun (acc : Reach.Cache.stats) c ->
      let s = Reach.Cache.stats c in
      {
        Reach.Cache.unchanged = acc.unchanged + s.unchanged;
        grew = acc.grew + s.grew;
        rebuilt = acc.rebuilt + s.rebuilt;
        undone = acc.undone + s.undone;
      })
    { Reach.Cache.unchanged = 0; grew = 0; rebuilt = 0; undone = 0 }
    t.caches

let reach_metrics =
  [|
    (`Unchanged, m_reach_unchanged);
    (`Grew, m_reach_grown);
    (`Rebuilt, m_reach_rebuilt);
    (`Undone, m_reach_undone);
  |]

(* Push everything accumulated since the last flush into the registry.
   Runs once per [advance] call (i.e. per thinning interval) and
   allocates nothing, so the per-step cost of observability is a
   handful of plain int updates. *)
let flush_metrics t =
  Metrics.add m_steps (t.steps - t.fl_steps);
  t.fl_steps <- t.steps;
  Metrics.add m_accepts (t.accepted - t.fl_accepted);
  t.fl_accepted <- t.accepted;
  for k = 0 to Array.length reach_metrics - 1 do
    let rule, m = reach_metrics.(k) in
    let n = ref 0 in
    for i = 0 to Array.length t.caches - 1 do
      n := !n + Reach.Cache.count t.caches.(i) rule
    done;
    Metrics.add m (!n - t.fl_reach.(k));
    t.fl_reach.(k) <- !n
  done;
  Metrics.set_ratio m_accept_rate t.accepted t.steps

let advance rng t k =
  for _ = 1 to k do
    step rng t
  done;
  flush_metrics t

let normaliser t = Fenwick.total t.weights
