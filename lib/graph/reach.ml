(* Epoch-stamped BFS scratch. A node is marked iff stamp.(v) = epoch;
   clearing all marks is one increment. Epochs start at 1 and only grow,
   so a raw 0 stamp is never "marked" and can be used to unmark. *)

type workspace = {
  n : int;
  qcap : int; (* ring capacity n + 1: full never aliases empty *)
  mutable epoch : int;
  stamp : int array;
  stamp2 : int array; (* second mark set (settled nodes in 0-1 BFS) *)
  queue : int array; (* ring buffer; each node enqueued <= once per run *)
  mutable head : int;
  mutable tail : int;
  parent : int array; (* parent edge ids, meaningful iff stamp current *)
  dist : int array; (* distances, meaningful iff stamp current *)
}

let workspace n =
  if n < 0 then invalid_arg "Reach.workspace: negative capacity";
  {
    n;
    qcap = n + 1;
    epoch = 1;
    stamp = Array.make n 0;
    stamp2 = Array.make n 0;
    queue = Array.make (n + 1) 0;
    head = 0;
    tail = 0;
    parent = Array.make n (-1);
    dist = Array.make n 0;
  }

let capacity ws = ws.n
let marked ws v = ws.stamp.(v) = ws.epoch

let check_node ws what v =
  if v < 0 || v >= ws.n then invalid_arg ("Reach." ^ what ^ ": bad node")

let reset ws =
  ws.epoch <- ws.epoch + 1;
  ws.head <- 0;
  ws.tail <- 0

let push ws v =
  ws.queue.(ws.tail) <- v;
  ws.tail <- (if ws.tail + 1 = ws.qcap then 0 else ws.tail + 1)

let pop ws =
  let v = ws.queue.(ws.head) in
  ws.head <- (if ws.head + 1 = ws.qcap then 0 else ws.head + 1);
  v

let queue_empty ws = ws.head = ws.tail

(* Mark-and-enqueue sources, then expand through active out-edges. *)
let expand ws ~active g =
  while not (queue_empty ws) do
    let v = pop ws in
    for k = 0 to Digraph.out_degree g v - 1 do
      let e = Digraph.out_edge g v k in
      if active e then begin
        let w = Digraph.edge_dst g e in
        if ws.stamp.(w) <> ws.epoch then begin
          ws.stamp.(w) <- ws.epoch;
          push ws w
        end
      end
    done
  done

let bfs ws ~active g ~src =
  check_node ws "bfs" src;
  reset ws;
  ws.stamp.(src) <- ws.epoch;
  push ws src;
  expand ws ~active g

let bfs_sources ws ~active g sources =
  reset ws;
  List.iter
    (fun v ->
      check_node ws "bfs_sources" v;
      if ws.stamp.(v) <> ws.epoch then begin
        ws.stamp.(v) <- ws.epoch;
        push ws v
      end)
    sources;
  expand ws ~active g

let count_marked ws =
  let c = ref 0 in
  for v = 0 to ws.n - 1 do
    if ws.stamp.(v) = ws.epoch then incr c
  done;
  !c

let snapshot ws = Array.init ws.n (fun v -> ws.stamp.(v) = ws.epoch)

let reachable_from ws ~active g sources =
  bfs_sources ws ~active g sources;
  snapshot ws

let unwind ws g ~src ~dst =
  let rec go v acc =
    if v = src then acc
    else begin
      let e = ws.parent.(v) in
      go (Digraph.edge_src g e) (e :: acc)
    end
  in
  go dst []

let shortest_path ws ~active g ~src ~dst =
  check_node ws "shortest_path" src;
  check_node ws "shortest_path" dst;
  if src = dst then Some []
  else begin
    reset ws;
    ws.stamp.(src) <- ws.epoch;
    push ws src;
    let found = ref false in
    while (not !found) && not (queue_empty ws) do
      let v = pop ws in
      Digraph.iter_out g v (fun e ->
          if (not !found) && active e then begin
            let w = Digraph.edge_dst g e in
            if ws.stamp.(w) <> ws.epoch then begin
              ws.stamp.(w) <- ws.epoch;
              ws.parent.(w) <- e;
              if w = dst then found := true else push ws w
            end
          end)
    done;
    if !found then Some (unwind ws g ~src ~dst) else None
  end

(* 0-1 BFS (Dial's deque variant): zero_cost edges extend the current
   frontier from the front, unit-cost edges from the back. A node can be
   re-queued once per incident edge, so the deque is sized by edges and
   allocated per call — this is a repair-time path, not the hot loop. *)
let cheapest_path ws ~usable ~zero_cost g ~src ~dst =
  check_node ws "cheapest_path" src;
  check_node ws "cheapest_path" dst;
  if src = dst then Some []
  else begin
    reset ws;
    let cap = Digraph.n_edges g + 2 in
    let deque = Array.make cap 0 in
    let head = ref 0 and tail = ref 0 and count = ref 0 in
    let push_back v =
      deque.(!tail) <- v;
      tail := (!tail + 1) mod cap;
      incr count
    in
    let push_front v =
      head := (!head + cap - 1) mod cap;
      deque.(!head) <- v;
      incr count
    in
    let pop_front () =
      let v = deque.(!head) in
      head := (!head + 1) mod cap;
      decr count;
      v
    in
    (* stamp marks "dist tentatively set"; stamp2 marks "settled". The
       deque pops in nondecreasing distance order, so a node's first pop
       carries its final distance; later (stale) pops are skipped. Each
       edge is then relaxed at most once, bounding pushes by edges + 1.
       A settled node's parent never changes again (relaxation skips
       settled nodes and is strict), so the search stops at dst's first
       pop with the path a full run would give. *)
    ws.stamp.(src) <- ws.epoch;
    ws.dist.(src) <- 0;
    push_back src;
    let relax v e w n_cost =
      let dv = ws.dist.(v) + n_cost in
      if ws.stamp.(w) <> ws.epoch || dv < ws.dist.(w) then begin
        ws.stamp.(w) <- ws.epoch;
        ws.dist.(w) <- dv;
        ws.parent.(w) <- e;
        if n_cost = 0 then push_front w else push_back w
      end
    in
    let reached = ref false in
    while !count > 0 && not !reached do
      let v = pop_front () in
      if v = dst then reached := true
      else if ws.stamp2.(v) <> ws.epoch then begin
        ws.stamp2.(v) <- ws.epoch;
        Digraph.iter_out g v (fun e ->
            if usable e then begin
              let w = Digraph.edge_dst g e in
              if ws.stamp2.(w) <> ws.epoch then
                relax v e w (if zero_cost e then 0 else 1)
            end)
      end
    done;
    if ws.stamp.(dst) = ws.epoch then Some (unwind ws g ~src ~dst) else None
  end

module Cache = struct
  (* Double-buffered membership: the expensive invalidation (a deleted
     tree edge) recomputes into the spare buffer and swaps, so undo is a
     swap back. Each buffer keeps its own epoch counter; raw stamp 0 is
     never current, so unmarking a node is stamp := 0. *)
  type buf = {
    mutable stamp : int array;
    mutable parent : int array;
    mutable epoch : int;
  }

  type t = {
    g : Digraph.t;
    source : int;
    ws : workspace;
    mutable cur : buf;
    mutable alt : buf;
    trail : int array; (* nodes added by the last Grew, for undo *)
    mutable trail_len : int;
    (* plain always-on tallies of which update rule fired; read by the
       sampler's metrics flush and by the ablation reports *)
    mutable n_unchanged : int;
    mutable n_grew : int;
    mutable n_rebuilt : int;
    mutable n_undone : int;
  }

  type update = Unchanged | Grew | Rebuilt

  type stats = { unchanged : int; grew : int; rebuilt : int; undone : int }

  let stats t =
    {
      unchanged = t.n_unchanged;
      grew = t.n_grew;
      rebuilt = t.n_rebuilt;
      undone = t.n_undone;
    }

  let count t = function
    | `Unchanged -> t.n_unchanged
    | `Grew -> t.n_grew
    | `Rebuilt -> t.n_rebuilt
    | `Undone -> t.n_undone

  let source t = t.source
  let reaches t v = t.cur.stamp.(v) = t.cur.epoch

  (* Expand the queued nodes through active out-edges into [buf],
     recording each new member's tree parent, and also adding it to the
     undo trail when [record]. *)
  let spread t buf ~active ~record =
    let ws = t.ws in
    while not (queue_empty ws) do
      let v = pop ws in
      for k = 0 to Digraph.out_degree t.g v - 1 do
        let e = Digraph.out_edge t.g v k in
        if active e then begin
          let w = Digraph.edge_dst t.g e in
          if buf.stamp.(w) <> buf.epoch then begin
            buf.stamp.(w) <- buf.epoch;
            buf.parent.(w) <- e;
            if record then begin
              t.trail.(t.trail_len) <- w;
              t.trail_len <- t.trail_len + 1
            end;
            push ws w
          end
        end
      done
    done

  (* Full BFS from the source into [buf], recording the tree. *)
  let full_bfs t buf ~active =
    buf.epoch <- buf.epoch + 1;
    t.ws.head <- 0;
    t.ws.tail <- 0;
    buf.stamp.(t.source) <- buf.epoch;
    buf.parent.(t.source) <- -1;
    push t.ws t.source;
    spread t buf ~active ~record:false

  let rebuild t ~active = full_bfs t t.cur ~active

  let create ws g ~source ~active =
    let n = Digraph.n_nodes g in
    if capacity ws < n then invalid_arg "Reach.Cache.create: workspace too small";
    if source < 0 || source >= n then invalid_arg "Reach.Cache.create: bad source";
    let buf () = { stamp = Array.make n 0; parent = Array.make n (-1); epoch = 0 } in
    let t =
      {
        g;
        source;
        ws;
        cur = buf ();
        alt = buf ();
        trail = Array.make n 0;
        trail_len = 0;
        n_unchanged = 0;
        n_grew = 0;
        n_rebuilt = 0;
        n_undone = 0;
      }
    in
    rebuild t ~active;
    t

  (* Incremental forward BFS from [d] (just activated, reachable
     source-side endpoint): marks only the newly reached region, and
     records it so a rejection can unmark it again. *)
  let grow t ~active ~edge d =
    let buf = t.cur in
    t.ws.head <- 0;
    t.ws.tail <- 0;
    buf.stamp.(d) <- buf.epoch;
    buf.parent.(d) <- edge;
    t.trail.(0) <- d;
    t.trail_len <- 1;
    push t.ws d;
    spread t buf ~active ~record:true

  let update t ~active ~edge =
    let s = Digraph.edge_src t.g edge in
    if not (reaches t s) then begin
      (* flipping an edge whose source the set cannot see never changes
         what the source reaches, in either direction *)
      t.n_unchanged <- t.n_unchanged + 1;
      Unchanged
    end
    else if active edge then begin
      let d = Digraph.edge_dst t.g edge in
      if reaches t d then begin
        t.n_unchanged <- t.n_unchanged + 1;
        Unchanged
      end
      else begin
        grow t ~active ~edge d;
        t.n_grew <- t.n_grew + 1;
        Grew
      end
    end
    else begin
      let d = Digraph.edge_dst t.g edge in
      if t.cur.stamp.(d) <> t.cur.epoch || t.cur.parent.(d) <> edge then begin
        (* not the tree parent of its destination: every member's
           witness path avoids this edge, so the set is intact *)
        t.n_unchanged <- t.n_unchanged + 1;
        Unchanged
      end
      else begin
        full_bfs t t.alt ~active;
        let old = t.cur in
        t.cur <- t.alt;
        t.alt <- old;
        t.n_rebuilt <- t.n_rebuilt + 1;
        Rebuilt
      end
    end

  let undo t = function
    | Unchanged -> ()
    | Grew ->
      for i = 0 to t.trail_len - 1 do
        t.cur.stamp.(t.trail.(i)) <- 0
      done;
      t.trail_len <- 0;
      t.n_undone <- t.n_undone + 1
    | Rebuilt ->
      let fresh = t.cur in
      t.cur <- t.alt;
      t.alt <- fresh;
      t.n_undone <- t.n_undone + 1
end
