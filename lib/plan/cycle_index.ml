module Digraph = Iflow_graph.Digraph
module Icm = Iflow_core.Icm

(* A refusal certificate that needs no trace (DESIGN.md §2h, "The
   refusal index"). A cycle C over live edges lies inside the trimmed
   cone of (src, dst) when C holds neither endpoint, src reaches C
   without passing dst, and C reaches dst without passing src; the node
   where that last path leaves C then has two live out-edges into the
   cone, so [Cone.trace ~certify:true] returns [Fork]. Both reach
   clauses are dominance questions in a dominator tree rooted at one
   node of C: the reverse tree for src, the forward tree for dst. *)

(* A dominator tree by one DFS clock over it: [a] dominates [b] iff
   pre a <= pre b and post b <= post a. pre.(v) = -1 off the tree. *)
type tree = { pre : int array; post : int array }

type cycle = { root : int; fwd : tree; rev : tree }

(* Live neighbours in CSR form: those of v are nbr.(off.(v) ..
   off.(v + 1) - 1). *)
type adj = { off : int array; nbr : int array }

type t = {
  icm : Icm.t;
  out : adj; (* live successors *)
  inn : adj; (* live predecessors *)
  rank : int array; (* cycle-root preference; -1: no live in- or out-edge *)
  tried : int list; (* roots whose search failed *)
  on_cycle : int array; (* the index of the cycle through v, or -1 *)
  cycles : cycle array;
  exhausted : bool; (* no candidate root is left *)
}

let max_cycles = 3

(* roots whose cycle search fails before an extension gives up *)
let max_attempts = 8

let icm t = t.icm
let cycles t = Array.length t.cycles
let complete t = t.exhausted || Array.length t.cycles >= max_cycles

(* Live successors and predecessors, each counted then filled in one
   pass over the edges. *)
let adjacencies icm =
  let g = Icm.graph icm and probs = Icm.probs icm in
  let n = Digraph.n_nodes g and m = Digraph.n_edges g in
  let out_off = Array.make (n + 1) 0 and in_off = Array.make (n + 1) 0 in
  for e = 0 to m - 1 do
    if probs.(e) > 0.0 then begin
      let u = Digraph.edge_src g e and v = Digraph.edge_dst g e in
      out_off.(u + 1) <- out_off.(u + 1) + 1;
      in_off.(v + 1) <- in_off.(v + 1) + 1
    end
  done;
  for v = 1 to n do
    out_off.(v) <- out_off.(v) + out_off.(v - 1);
    in_off.(v) <- in_off.(v) + in_off.(v - 1)
  done;
  let out_at = Array.sub out_off 0 n and in_at = Array.sub in_off 0 n in
  let out_nbr = Array.make out_off.(n) 0 and in_nbr = Array.make in_off.(n) 0 in
  for e = 0 to m - 1 do
    if probs.(e) > 0.0 then begin
      let u = Digraph.edge_src g e and v = Digraph.edge_dst g e in
      out_nbr.(out_at.(u)) <- v;
      out_at.(u) <- out_at.(u) + 1;
      in_nbr.(in_at.(v)) <- u;
      in_at.(v) <- in_at.(v) + 1
    end
  done;
  ({ off = out_off; nbr = out_nbr }, { off = in_off; nbr = in_nbr })

(* The nodes of a shortest cycle through [r] that avoids every node
   already on a cycle, r first; [] when none. *)
let shortest_cycle t r =
  let { off; nbr } = t.out in
  let n = Array.length off - 1 in
  let parent = Array.make n (-1) and queue = Array.make n 0 in
  parent.(r) <- r;
  queue.(0) <- r;
  let head = ref 0 and tail = ref 1 and last = ref (-1) in
  while !last < 0 && !head < !tail do
    let v = queue.(!head) in
    incr head;
    for k = off.(v) to off.(v + 1) - 1 do
      let w = nbr.(k) in
      if !last < 0 && t.on_cycle.(w) < 0 then
        if w = r then last := v
        else if parent.(w) < 0 then begin
          parent.(w) <- v;
          queue.(!tail) <- w;
          incr tail
        end
    done
  done;
  let rec walk v acc = if v = r then r :: acc else walk parent.(v) (v :: acc) in
  if !last < 0 then [] else walk !last []

(* The dominator tree of the nodes reachable from [root] along [succ],
   by Semi-NCA (Georgiadis) over DFS preorder numbers; [pred] is [succ]
   reversed. *)
let dominator_tree ~succ ~pred root =
  let n = Array.length succ.off - 1 in
  (* 1. DFS preorder: num.(v) = -1 off the tree, parent by number *)
  let num = Array.make n (-1) and vertex = Array.make n 0 in
  let parent = Array.make n 0 in
  let stack = Array.make n 0 and cursor = Array.make n 0 in
  let sp = ref 1 and count = ref 1 in
  stack.(0) <- root;
  num.(root) <- 0;
  vertex.(0) <- root;
  cursor.(root) <- succ.off.(root);
  while !sp > 0 do
    let v = stack.(!sp - 1) in
    let k = cursor.(v) in
    if k < succ.off.(v + 1) then begin
      cursor.(v) <- k + 1;
      let w = succ.nbr.(k) in
      if num.(w) < 0 then begin
        num.(w) <- !count;
        vertex.(!count) <- w;
        parent.(!count) <- num.(v);
        incr count;
        cursor.(w) <- succ.off.(w);
        stack.(!sp) <- w;
        incr sp
      end
    end
    else decr sp
  done;
  let count = !count in
  (* 2. semidominators, in reverse preorder, with the path-compressed
     forest of processed nodes (ancestor.(v) = -1 until v is linked) *)
  let semi = Array.init count Fun.id and label = Array.init count Fun.id in
  let ancestor = Array.make count (-1) in
  for w = count - 1 downto 1 do
    let node = vertex.(w) in
    for k = pred.off.(node) to pred.off.(node + 1) - 1 do
      let v = num.(pred.nbr.(k)) in
      if v >= 0 then begin
        let u =
          if ancestor.(v) < 0 then v
          else begin
            let x = ref v and depth = ref 0 in
            while ancestor.(ancestor.(!x)) >= 0 do
              stack.(!depth) <- !x;
              incr depth;
              x := ancestor.(!x)
            done;
            while !depth > 0 do
              decr depth;
              let y = stack.(!depth) in
              let a = ancestor.(y) in
              if semi.(label.(a)) < semi.(label.(y)) then label.(y) <- label.(a);
              ancestor.(y) <- ancestor.(a)
            done;
            label.(v)
          end
        in
        if semi.(u) < semi.(w) then semi.(w) <- semi.(u)
      end
    done;
    ancestor.(w) <- parent.(w)
  done;
  (* 3. the immediate dominator is the nearest ancestor of the DFS
     parent that is not below the semidominator *)
  let idom = parent in
  for w = 1 to count - 1 do
    while idom.(w) > semi.(w) do
      idom.(w) <- idom.(idom.(w))
    done
  done;
  (* 4. one DFS clock over the tree, through child and sibling links *)
  let child = Array.make count (-1) and sibling = Array.make count (-1) in
  for w = count - 1 downto 1 do
    sibling.(w) <- child.(idom.(w));
    child.(idom.(w)) <- w
  done;
  let pre = Array.make n (-1) and post = Array.make n (-1) in
  let clock = ref 1 in
  stack.(0) <- 0;
  sp := 1;
  pre.(root) <- 0;
  while !sp > 0 do
    let i = stack.(!sp - 1) in
    let c = child.(i) in
    if c >= 0 then begin
      child.(i) <- sibling.(c);
      pre.(vertex.(c)) <- !clock;
      incr clock;
      stack.(!sp) <- c;
      incr sp
    end
    else begin
      decr sp;
      post.(vertex.(i)) <- !clock;
      incr clock
    end
  done;
  { pre; post }

(* the untried root of highest rank, off every cycle; -1 when none *)
let best_root t =
  let best = ref (-1) in
  Array.iteri
    (fun v r ->
      if
        r >= 0
        && (!best < 0 || r > t.rank.(!best))
        && t.on_cycle.(v) < 0
        && not (List.mem v t.tried)
      then best := v)
    t.rank;
  !best

let extend t =
  let rec attempt t left =
    if complete t then t
    else if left = 0 then { t with exhausted = true }
    else
      let r = best_root t in
      if r < 0 then { t with exhausted = true }
      else
        match shortest_cycle t r with
        | [] -> attempt { t with tried = r :: t.tried } (left - 1)
        | nodes ->
          let k = Array.length t.cycles in
          let on_cycle = Array.copy t.on_cycle in
          List.iter (fun v -> on_cycle.(v) <- k) nodes;
          let cycle =
            {
              root = r;
              fwd = dominator_tree ~succ:t.out ~pred:t.inn r;
              rev = dominator_tree ~succ:t.inn ~pred:t.out r;
            }
          in
          { t with on_cycle; cycles = Array.append t.cycles [| cycle |] }
  in
  attempt t max_attempts

(* Roots rank by live in-degree times out-degree: a short cycle through
   a hub of the giant strongly connected component sits in most cyclic
   cones, and a node without live in- or out-edges is on no cycle. *)
let create icm =
  let out, inn = adjacencies icm in
  let n = Array.length out.off - 1 in
  let degree a v = a.off.(v + 1) - a.off.(v) in
  let rank =
    Array.init n (fun v ->
        let d = degree inn v * degree out v in
        if d = 0 then -1 else d)
  in
  extend
    {
      icm;
      out;
      inn;
      rank;
      tried = [];
      on_cycle = Array.make n (-1);
      cycles = [||];
      exhausted = false;
    }

let[@inline] dominates tree a b =
  tree.pre.(a) <= tree.pre.(b) && tree.post.(b) <= tree.post.(a)

let catches t i ~src ~dst =
  let c = t.cycles.(i) in
  t.on_cycle.(src) <> i
  && t.on_cycle.(dst) <> i
  && c.rev.pre.(src) >= 0
  && not (c.rev.pre.(dst) >= 0 && dominates c.rev dst src)
  && c.fwd.pre.(dst) >= 0
  && not (c.fwd.pre.(src) >= 0 && dominates c.fwd src dst)

let refusal t ~src ~dst =
  let rec go i =
    if i = Array.length t.cycles then -1
    else if catches t i ~src ~dst then t.cycles.(i).root
    else go (i + 1)
  in
  go 0
