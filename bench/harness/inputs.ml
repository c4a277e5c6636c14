(* Every input the harness feeds the server, derived from the workload
   seed alone: the two reference models, fresh connected query pairs,
   hot query sets, and attributed evidence lines. *)

module Rng = Iflow_stats.Rng
module Gen = Iflow_graph.Gen
module Digraph = Iflow_graph.Digraph
module Icm = Iflow_core.Icm
module Beta_icm = Iflow_core.Beta_icm
module Generator = Iflow_core.Generator
module Cascade = Iflow_core.Cascade
module Event = Iflow_stream.Event

let default_seed = 20120402

(* independent deterministic streams per purpose, so adding a consumer
   never shifts another one's draws *)
let stream seed purpose = Rng.create (Hashtbl.hash (seed, purpose))

type model = {
  name : string;
  beta : Beta_icm.t;  (** the served model *)
  icm : Icm.t;  (** its expected ICM, which the engine answers on *)
  truth : Icm.t;  (** ground truth the evidence cascades run on *)
}

(* The paper's timing setting: preferential attachment, 6000 nodes,
   mean out-degree 2 (11,997 edges), served untrained. *)
let pa seed =
  let rng = stream seed "pa" in
  let g = Gen.preferential_attachment rng ~nodes:6000 ~mean_out_degree:2 in
  let truth = Generator.retweet_ground_truth rng g in
  let beta = Beta_icm.uninformed g in
  { name = "pa"; beta; icm = Beta_icm.expected_icm beta; truth }

(* The paper's synthetic betaICM (Section IV-A): G(6000, 12000) with
   a, b ~ U(1, 20). *)
let synthetic seed =
  let rng = stream seed "synthetic" in
  let beta = Generator.default_beta_icm rng ~nodes:6000 ~edges:12_000 in
  let truth = Generator.retweet_ground_truth rng (Beta_icm.graph beta) in
  { name = "synthetic"; beta; icm = Beta_icm.expected_icm beta; truth }

(* ----- connected pairs ----- *)

(* Pairs (src, dst) with dst a descendant of src: src uniform among nodes
   with descendants, dst uniform among them, never repeated until every
   pair has been drawn. With
   [tree_only] the pair's reachability cone (descendants of src that are
   ancestors of dst) must be a tree, which the planner always certifies.
   Every edge of both models has positive probability, so graph
   reachability is flow reachability.

   This is the cone [Cone.extract] builds for the planner; on 20,000
   query_exact pairs of the reference PA model the two agreed on every
   one. It is walked here rather than built with [Reach] and
   [Cone.extract] because a uniform dst needs the list of descendants,
   which [Reach] only gives through a scan of the whole model, and
   [Cone.extract] allocates arrays over the whole model: built that way,
   20,000 query_exact pairs took 5.1 s to generate instead of 0.33 s. *)
type pairs = {
  g : Digraph.t;
  rng : Rng.t;
  tree_only : bool;
  seen : (int * int, unit) Hashtbl.t;
  desc : int array;  (** epoch marks: descendants of the current src *)
  cone : int array;  (** epoch marks: the current cone *)
  queue : int array;
  mutable epoch : int;
}

let pairs ?(tree_only = false) g rng =
  let n = Digraph.n_nodes g in
  {
    g;
    rng;
    tree_only;
    seen = Hashtbl.create 4096;
    desc = Array.make n 0;
    cone = Array.make n 0;
    queue = Array.make n 0;
    epoch = 0;
  }

(* BFS from [src] over out-edges; leaves the descendants (src first) in
   [queue] and returns their count *)
let descendants p src =
  p.epoch <- p.epoch + 1;
  p.desc.(src) <- p.epoch;
  p.queue.(0) <- src;
  let head = ref 0 and tail = ref 1 in
  while !head < !tail do
    let u = p.queue.(!head) in
    incr head;
    Digraph.iter_out p.g u (fun e ->
        let v = Digraph.edge_dst p.g e in
        if p.desc.(v) <> p.epoch then begin
          p.desc.(v) <- p.epoch;
          p.queue.(!tail) <- v;
          incr tail
        end)
  done;
  !tail

(* The cone is the reverse BFS from dst restricted to src's
   descendants; it is a tree when it has one edge fewer than nodes. *)
let cone_is_tree p ~dst =
  let epoch = p.epoch in
  let stack = ref [ dst ] and nodes = ref 0 and edges = ref 0 in
  p.cone.(dst) <- epoch;
  while !stack <> [] do
    let v = List.hd !stack in
    stack := List.tl !stack;
    incr nodes;
    Digraph.iter_in p.g v (fun e ->
        let u = Digraph.edge_src p.g e in
        if p.desc.(u) = epoch then begin
          incr edges;
          if p.cone.(u) <> epoch then begin
            p.cone.(u) <- epoch;
            stack := u :: !stack
          end
        end)
  done;
  !edges = !nodes - 1

let rec next_pair ?(attempts = 100_000) p =
  if attempts = 0 then begin
    if Hashtbl.length p.seen = 0 then failwith "Inputs.next_pair: no connected pair";
    Hashtbl.reset p.seen;
    next_pair p
  end
  else
    let src = Rng.int p.rng (Digraph.n_nodes p.g) in
    let count = descendants p src in
    let retry () = next_pair ~attempts:(attempts - 1) p in
    if count < 2 then retry ()
    else
      let dst = p.queue.(1 + Rng.int p.rng (count - 1)) in
      if Hashtbl.mem p.seen (src, dst) || (p.tree_only && not (cone_is_tree p ~dst)) then
        retry ()
      else begin
        Hashtbl.replace p.seen (src, dst) ();
        (src, dst)
      end

let flow_line ?condition (src, dst) =
  match condition with
  | None -> Printf.sprintf "{\"type\":\"flow\",\"src\":%d,\"dst\":%d}\n" src dst
  | Some (u, v) ->
    Printf.sprintf
      "{\"type\":\"flow\",\"src\":%d,\"dst\":%d,\"conditions\":[[%d,%d,true]]}\n"
      src dst u v

(* [n] distinct tree-cone pairs as query lines: the hot sets, and
   query_exact's requests *)
let tree_lines seed (m : model) purpose n =
  let p = pairs ~tree_only:true (Icm.graph m.icm) (stream seed purpose) in
  Array.init n (fun _ -> flow_line (next_pair p))

(* query_mh: [n] distinct connected pairs on the synthetic model; one
   request in 8 carries one positive condition on another connected
   pair *)
let mh_lines seed (m : model) n =
  let g = Icm.graph m.icm in
  let p = pairs g (stream seed "mh") in
  let c = pairs g (stream seed "mh-conditions") in
  Array.init n (fun i ->
      let target = next_pair p in
      if i mod 8 = 7 then flow_line ~condition:(next_pair c) target
      else flow_line target)

(* [n] attributed cascades from uniform sources over the ground truth *)
let evidence seed (m : model) n =
  let rng = stream seed ("evidence-" ^ m.name) in
  let g = Icm.graph m.truth in
  let nodes = Digraph.n_nodes g in
  Array.init n (fun _ ->
      let o = Cascade.run rng m.truth ~sources:[ Rng.int rng nodes ] in
      Event.to_line (Event.of_attributed g o))
