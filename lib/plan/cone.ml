module Digraph = Iflow_graph.Digraph
module Icm = Iflow_core.Icm

(* The trimmed reachability cone of (src, dst), traced in one linear
   pass and, when certified, evaluated in one linear sweep.

   Trimming: no simple src -> dst path uses an edge into src or out of
   dst, so the cone drops both. The reverse BFS from dst never expands
   src's in-edges; the forward BFS from src, restricted to what the
   reverse BFS marked, never expands dst's out-edges. Zero-probability
   edges can never fire and carry no dependence, so neither pass
   crosses them.

   Certificate: every cone node other than src and dst has at most one
   live out-edge into the marked set. Such a node also has at least one
   (it reaches dst), and that edge lies on a shortest path to dst, so
   following the unique out-edges strictly decreases the reverse-BFS
   distance: every walk ends at dst. The cone minus src is therefore an
   in-tree toward dst, the whole cone is acyclic, and the ancestor sets
   of a join's parents meet only at src — the condition under which
   Eq. 2's product form is exact (DESIGN.md §2h). The forward pass
   refuses at the first node with two such out-edges (the fork), before
   anything per-cone is built.

   Evaluation visits nodes in reverse reverse-BFS order, which is
   topological: a parent l <> src of k sits one step further from dst
   than k. *)

type t = {
  mutable icm : Icm.t;
  mutable g : Digraph.t;
  rev : int array; (* = epoch: reaches dst without passing src *)
  fwd : int array; (* = epoch: in the cone *)
  rq : int array; (* reverse-BFS queue, nearest dst first *)
  fq : int array; (* forward-BFS queue: the cone, src first *)
  fe : int array; (* fe.(i): the edge that discovered fq.(i) *)
  mutable pr : float array; (* Pr[src ~> v], allocated on first sweep *)
  mutable epoch : int;
  mutable rn : int;
  mutable fn : int;
  mutable ne : int; (* live cone edges *)
  mutable src : int;
  mutable dst : int;
  mutable work : int;
}

let create icm =
  let g = Icm.graph icm in
  let n = Digraph.n_nodes g in
  {
    icm;
    g;
    rev = Array.make n 0;
    fwd = Array.make n 0;
    rq = Array.make n 0;
    fq = Array.make n 0;
    fe = Array.make n (-1);
    pr = [||];
    epoch = 0;
    rn = 0;
    fn = 0;
    ne = 0;
    src = 0;
    dst = 0;
    work = 0;
  }

let n_nodes t = Array.length t.rev

let rebind t icm =
  if Digraph.n_nodes (Icm.graph icm) <> Array.length t.rev then
    invalid_arg "Cone.rebind: node count differs";
  t.icm <- icm;
  t.g <- Icm.graph icm

type verdict =
  | Unreachable
  | Fork of { node : int }
  | Traced of { nodes : int; edges : int }

let live t e = Icm.prob t.icm e > 0.0

let trace t ~certify ~src ~dst =
  let g = t.g in
  let n = Digraph.n_nodes g in
  if src < 0 || src >= n || dst < 0 || dst >= n then
    invalid_arg "Cone.trace: node out of range";
  if src = dst then invalid_arg "Cone.trace: src = dst has no cone";
  t.epoch <- t.epoch + 1;
  t.src <- src;
  t.dst <- dst;
  let ep = t.epoch in
  (* 1. ancestors of dst, never walking back through src *)
  t.rev.(dst) <- ep;
  t.rq.(0) <- dst;
  t.rn <- 1;
  let head = ref 0 in
  while !head < t.rn do
    let v = t.rq.(!head) in
    incr head;
    if v <> src then
      Digraph.iter_in g v (fun e ->
          t.work <- t.work + 1;
          let u = Digraph.edge_src g e in
          if t.rev.(u) <> ep && live t e then begin
            t.rev.(u) <- ep;
            t.rq.(t.rn) <- u;
            t.rn <- t.rn + 1
          end)
  done;
  if t.rev.(src) <> ep then Unreachable
  else begin
    (* 2. descendants of src among them, never walking on from dst *)
    t.fwd.(src) <- ep;
    t.fq.(0) <- src;
    t.fn <- 1;
    t.ne <- 0;
    let fork = ref (-1) in
    let head = ref 0 in
    while !fork < 0 && !head < t.fn do
      let u = t.fq.(!head) in
      incr head;
      if u <> dst then begin
        let outs = ref 0 in
        Digraph.iter_out g u (fun e ->
            t.work <- t.work + 1;
            let v = Digraph.edge_dst g e in
            if v <> src && t.rev.(v) = ep && live t e then begin
              incr outs;
              if t.fwd.(v) <> ep then begin
                t.fwd.(v) <- ep;
                t.fq.(t.fn) <- v;
                t.fe.(t.fn) <- e;
                t.fn <- t.fn + 1
              end
            end);
        t.ne <- t.ne + !outs;
        (* 3. the fork stop *)
        if certify && u <> src && !outs >= 2 then fork := u
      end
    done;
    if !fork >= 0 then Fork { node = !fork }
    else Traced { nodes = t.fn; edges = t.ne }
  end

let work t = t.work

let iter_edges t f =
  let ep = t.epoch in
  for i = 0 to t.fn - 1 do
    let u = t.fq.(i) in
    if u <> t.dst then
      Digraph.iter_out t.g u (fun e ->
          let v = Digraph.edge_dst t.g e in
          if v <> t.src && t.rev.(v) = ep && live t e then f e)
  done

let flow t =
  let g = t.g and src = t.src and dst = t.dst in
  if t.ne = t.fn - 1 then begin
    (* certified, so edges = nodes - 2 + src's out-degree: one src
       out-edge makes the cone a path. The dst -> src product over the
       discovery edges. *)
    let p = ref 1.0 in
    for i = t.fn - 1 downto 1 do
      p := !p *. Icm.prob t.icm t.fe.(i)
    done;
    t.work <- t.work + t.fn - 1;
    (!p, Some (List.init t.fn (fun i -> t.fq.(i))))
  end
  else begin
    (* Eq. 2 per node: 1 - prod over live in-edges (l, k) of
       (1 - Pr[src ~> l] * p_e) *)
    if Array.length t.pr < Digraph.n_nodes g then
      t.pr <- Array.make (Digraph.n_nodes g) 0.0;
    let ep = t.epoch in
    for i = t.rn - 1 downto 0 do
      let k = t.rq.(i) in
      if k <> src && t.fwd.(k) = ep then begin
        let product = ref 1.0 in
        Digraph.iter_in g k (fun e ->
            t.work <- t.work + 1;
            let l = Digraph.edge_src g e in
            let p_e = Icm.prob t.icm e in
            if l <> dst && t.fwd.(l) = ep && p_e > 0.0 then begin
              let sub = if l = src then 1.0 else t.pr.(l) in
              product := !product *. (1.0 -. (sub *. p_e))
            end);
        t.pr.(k) <- 1.0 -. !product
      end
    done;
    (t.pr.(dst), None)
  end
