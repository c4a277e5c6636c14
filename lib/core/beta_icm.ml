module Digraph = Iflow_graph.Digraph
module Beta = Iflow_stats.Dist.Beta
module Dist = Iflow_stats.Dist
module Rng = Iflow_stats.Rng

(* The posterior as two pseudo-count arrays, [alpha.(e)] and [beta.(e)]
   for edge [e], the layout {!Accum} keeps too: publishing copies two
   flat float arrays and builds no per-edge [Beta.t]. *)
type t = { graph : Digraph.t; alpha : float array; beta : float array }

let create graph betas =
  if Array.length betas <> Digraph.n_edges graph then
    invalid_arg "Beta_icm.create: size mismatch";
  {
    graph;
    alpha = Array.map (fun b -> b.Beta.alpha) betas;
    beta = Array.map (fun b -> b.Beta.beta) betas;
  }

let uninformed graph =
  let m = Digraph.n_edges graph in
  { graph; alpha = Array.make m 1.0; beta = Array.make m 1.0 }

let graph t = t.graph
let edge_beta t e = { Beta.alpha = t.alpha.(e); beta = t.beta.(e) }
let n_nodes t = Digraph.n_nodes t.graph
let n_edges t = Digraph.n_edges t.graph

let train_attributed g objects =
  let m = Digraph.n_edges g in
  let alpha = Array.make m 1.0 and beta = Array.make m 1.0 in
  List.iter
    (fun (o : Evidence.attributed_object) ->
      if not (Evidence.attributed_object_is_consistent g o) then
        invalid_arg "Beta_icm.train_attributed: inconsistent object";
      for e = 0 to m - 1 do
        if o.active_edges.(e) then alpha.(e) <- alpha.(e) +. 1.0
        else if o.active_nodes.(Digraph.edge_src g e) then
          beta.(e) <- beta.(e) +. 1.0
      done)
    objects;
  { graph = g; alpha; beta }

let observe_many t obs =
  let m = Array.length t.alpha in
  let alpha = Array.copy t.alpha and beta = Array.copy t.beta in
  List.iter
    (fun (edge, fired) ->
      if edge < 0 || edge >= m then invalid_arg "Beta_icm.observe_many: bad edge";
      if fired then alpha.(edge) <- alpha.(edge) +. 1.0
      else beta.(edge) <- beta.(edge) +. 1.0)
    obs;
  { t with alpha; beta }

let observe t ~edge ~fired = observe_many t [ (edge, fired) ]

let grow t ~new_nodes ~new_edges =
  if new_nodes < 0 then invalid_arg "Beta_icm.grow: negative node count";
  let nodes = Digraph.n_nodes t.graph + new_nodes in
  let pairs =
    Digraph.edges t.graph @ List.map (fun (s, d, _) -> (s, d)) new_edges
  in
  let priors = Array.of_list (List.map (fun (_, _, b) -> b) new_edges) in
  {
    graph = Digraph.of_edges ~nodes pairs;
    alpha = Array.append t.alpha (Array.map (fun b -> b.Beta.alpha) priors);
    beta = Array.append t.beta (Array.map (fun b -> b.Beta.beta) priors);
  }

let remove_edges t pairs =
  let doomed = Hashtbl.create 16 in
  List.iter (fun p -> Hashtbl.replace doomed p ()) pairs;
  let pair e = (Digraph.edge_src t.graph e, Digraph.edge_dst t.graph e) in
  let kept =
    List.filter
      (fun e -> not (Hashtbl.mem doomed (pair e)))
      (List.init (n_edges t) Fun.id)
  in
  let pick counts = Array.of_list (List.map (fun e -> counts.(e)) kept) in
  {
    graph = Digraph.of_edges ~nodes:(Digraph.n_nodes t.graph) (List.map pair kept);
    alpha = pick t.alpha;
    beta = pick t.beta;
  }

module Accum = struct
  type model = t

  type t = {
    mutable graph : Digraph.t;
    mutable alpha : float array;
    mutable beta : float array;
    mutable observed : int;
  }

  let of_model (m : model) =
    {
      graph = m.graph;
      alpha = Array.copy m.alpha;
      beta = Array.copy m.beta;
      observed = 0;
    }

  let graph t = t.graph
  let n_edges t = Array.length t.alpha
  let observed t = t.observed

  let freeze t : model =
    (* the check [Beta.v] makes: decay can underflow a count to 0 *)
    for e = 0 to Array.length t.alpha - 1 do
      let a = t.alpha.(e) and b = t.beta.(e) in
      if a <= 0.0 || b <= 0.0 then
        invalid_arg
          (Printf.sprintf "Beta_icm.Accum.freeze: edge %d has alpha = %g, beta = %g"
             e a b)
    done;
    { graph = t.graph; alpha = Array.copy t.alpha; beta = Array.copy t.beta }

  let observe t ~edge ~fired =
    if edge < 0 || edge >= Array.length t.alpha then
      invalid_arg "Beta_icm.Accum.observe: bad edge";
    if fired then t.alpha.(edge) <- t.alpha.(edge) +. 1.0
    else t.beta.(edge) <- t.beta.(edge) +. 1.0;
    t.observed <- t.observed + 1

  let decay t ~lambda =
    if not (lambda >= 0.0 && lambda < 1.0) then
      invalid_arg "Beta_icm.Accum.decay: lambda outside [0, 1)";
    if lambda > 0.0 then begin
      let keep = 1.0 -. lambda in
      for e = 0 to Array.length t.alpha - 1 do
        t.alpha.(e) <- keep *. t.alpha.(e);
        t.beta.(e) <- keep *. t.beta.(e)
      done
    end

  let reload t (m : model) =
    t.graph <- m.graph;
    t.alpha <- Array.copy m.alpha;
    t.beta <- Array.copy m.beta

  let grow t ~new_nodes ~new_edges =
    reload t (grow (freeze t) ~new_nodes ~new_edges)

  let remove_edges t pairs = reload t (remove_edges (freeze t) pairs)
end

let digest t =
  let module Fp = Iflow_stats.Fingerprint in
  let fp = Fp.resume (Digraph.fingerprint t.graph) in
  Fp.add_float_pairs fp t.alpha t.beta;
  Fp.to_hex fp

let expected_icm t =
  (* a loop, not [Array.map Beta.mean], so no per-edge float is boxed;
     [a /. (a +. b)] is [Beta.mean], bit for bit *)
  let m = Array.length t.alpha in
  let probs = Array.create_float m in
  for e = 0 to m - 1 do
    let a = t.alpha.(e) in
    probs.(e) <- a /. (a +. t.beta.(e))
  done;
  Icm.own t.graph probs

let sample_icm rng t =
  Icm.own t.graph
    (Array.init (n_edges t) (fun e -> Beta.sample rng (edge_beta t e)))

let mean_std_icm rng ~mean ~std g =
  let m = Digraph.n_edges g in
  if Array.length mean <> m || Array.length std <> m then
    invalid_arg "Beta_icm.mean_std_icm: size mismatch";
  let probs =
    Array.init m (fun e ->
        let p = Dist.gaussian rng ~mean:mean.(e) ~std:std.(e) in
        Float.max 0.0 (Float.min 1.0 p))
  in
  Icm.own g probs

let pp ppf t =
  Format.fprintf ppf "beta_icm(%d nodes, %d edges)" (n_nodes t) (n_edges t)
