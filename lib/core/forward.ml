module Digraph = Iflow_graph.Digraph
module Rng = Iflow_stats.Rng

type t = {
  icm : Icm.t;
  g : Digraph.t;
  mutable state : int; (* coin e is tossed in this state iff tossed.(e) = state *)
  tossed : int array;
  fired : Bytes.t;
  mutable sweep : int; (* v is reached iff seen.(v) = sweep, a goal iff goal.(v) = sweep *)
  seen : int array;
  goal : int array;
  queue : int array; (* each node is queued at most once per sweep *)
}

let create icm =
  let n = Icm.n_nodes icm and m = Icm.n_edges icm in
  {
    icm;
    g = Icm.graph icm;
    state = 0;
    tossed = Array.make m (-1);
    fired = Bytes.make m '\000';
    sweep = 0;
    seen = Array.make n 0;
    goal = Array.make n 0;
    queue = Array.make n 0;
  }

let fresh t = t.state <- t.state + 1

(* edge e's coin in the current state, tossed on first look *)
let coin t rng e =
  if t.tossed.(e) = t.state then Bytes.unsafe_get t.fired e <> '\000'
  else begin
    let up = Icm.fires t.icm e (Rng.bits53 rng) in
    t.tossed.(e) <- t.state;
    Bytes.unsafe_set t.fired e (if up then '\001' else '\000');
    up
  end

(* Breadth-first from [src] over fired edges, tossing a coin only when
   its edge leads to a node not yet reached; true once [left] goals of
   the current sweep are reached. *)
let spread t rng ~src left =
  let s = t.sweep in
  let left = ref left in
  t.seen.(src) <- s;
  if t.goal.(src) = s then decr left;
  t.queue.(0) <- src;
  let head = ref 0 and tail = ref 1 in
  while !left > 0 && !head < !tail do
    let v = t.queue.(!head) in
    incr head;
    let deg = Digraph.out_degree t.g v in
    let k = ref 0 in
    while !left > 0 && !k < deg do
      let e = Digraph.out_edge t.g v !k in
      incr k;
      let w = Digraph.edge_dst t.g e in
      if t.seen.(w) <> s && coin t rng e then begin
        t.seen.(w) <- s;
        t.queue.(!tail) <- w;
        incr tail;
        if t.goal.(w) = s then decr left
      end
    done
  done;
  !left = 0

let flow t rng ~src ~dst =
  t.sweep <- t.sweep + 1;
  t.goal.(dst) <- t.sweep;
  spread t rng ~src 1

(* stamp each distinct sink as a goal of the current sweep; the count *)
let rec add_goals t n = function
  | [] -> n
  | v :: rest ->
    if t.goal.(v) = t.sweep then add_goals t n rest
    else begin
      t.goal.(v) <- t.sweep;
      add_goals t (n + 1) rest
    end

let community t rng ~src ~sinks =
  t.sweep <- t.sweep + 1;
  spread t rng ~src (add_goals t 0 sinks)
