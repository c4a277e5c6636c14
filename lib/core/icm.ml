module Digraph = Iflow_graph.Digraph

type t = { graph : Digraph.t; probs : float array }

(* Checks [probs] and keeps it: the caller hands the array over. *)
let own graph probs =
  if Array.length probs <> Digraph.n_edges graph then
    invalid_arg
      (Printf.sprintf "Icm.create: %d probabilities for %d edges"
         (Array.length probs) (Digraph.n_edges graph));
  for e = 0 to Array.length probs - 1 do
    let p = probs.(e) in
    if not (p >= 0.0 && p <= 1.0) then
      invalid_arg (Printf.sprintf "Icm.create: p(%d) = %g outside [0,1]" e p)
  done;
  { graph; probs }

let create graph probs = own graph (Array.copy probs)
let const graph p = own graph (Array.make (Digraph.n_edges graph) p)
let graph t = t.graph
let prob t e = t.probs.(e)
let probs t = Array.copy t.probs

(* [Rng.uniform] scaled here, so the float never leaves this module *)
let fires t e bits = Float.of_int bits *. 0x1.p-53 < t.probs.(e)
let n_nodes t = Digraph.n_nodes t.graph
let n_edges t = Digraph.n_edges t.graph

let digest t =
  let module Fp = Iflow_stats.Fingerprint in
  let fp = Fp.resume (Digraph.fingerprint t.graph) in
  Fp.add_floats fp t.probs;
  Fp.to_hex fp

let pp ppf t =
  Format.fprintf ppf "icm(%d nodes, %d edges)" (n_nodes t) (n_edges t)
