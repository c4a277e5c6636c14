module Metrics = Iflow_obs.Metrics
module Clock = Iflow_obs.Clock

let m_tasks =
  Metrics.counter ~help:"Tasks executed by the worker pool"
    "iflow_engine_pool_tasks_total"

let m_busy_ns =
  Metrics.counter ~help:"Nanoseconds pool domains spent running task blocks"
    "iflow_engine_pool_busy_ns_total"

let m_domains =
  Metrics.gauge ~help:"Workers used by the most recent pool run"
    "iflow_engine_pool_domains"

let m_inflight =
  Metrics.gauge ~help:"Tasks submitted to the in-progress pool run (0 when idle)"
    "iflow_engine_pool_inflight_tasks"

type t = { size : int }

let create ?size () =
  let size =
    match size with
    | Some s ->
      if s < 1 then invalid_arg "Pool.create: size must be >= 1";
      s
    | None -> Domain.recommended_domain_count ()
  in
  { size }

let size t = t.size

let run_results t f tasks =
  let n = Array.length tasks in
  if n = 0 then [||]
  else begin
    let workers = min t.size n in
    Metrics.set m_domains (float_of_int workers);
    Metrics.set m_inflight (float_of_int n);
    Metrics.add m_tasks n;
    let results = Array.make n None in
    if workers = 1 then begin
      let t0 = Clock.now_ns () in
      Array.iteri
        (fun i task ->
          results.(i) <-
            (match f task with
            | v -> Some (Ok v)
            | exception e -> Some (Error e)))
        tasks;
      Metrics.add m_busy_ns (Clock.now_ns () - t0)
    end
    else begin
      (* worker w owns indices with i mod workers = w: assignment is a
         pure function of the index, never of timing; its busy time
         lands in its own domain's shard *)
      let run_block w () =
        let t0 = Clock.now_ns () in
        let i = ref w in
        while !i < n do
          (results.(!i) <-
            (match f tasks.(!i) with
            | v -> Some (Ok v)
            | exception e -> Some (Error e)));
          i := !i + workers
        done;
        Metrics.add m_busy_ns (Clock.now_ns () - t0)
      in
      let domains =
        Array.init (workers - 1) (fun w -> Domain.spawn (run_block (w + 1)))
      in
      run_block 0 ();
      Array.iter Domain.join domains
    end;
    Metrics.set m_inflight 0.0;
    Array.map (function Some r -> r | None -> assert false) results
  end

let run t f tasks =
  Array.map
    (function Ok v -> v | Error e -> raise e)
    (run_results t f tasks)
