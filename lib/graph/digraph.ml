type edge = { src : int; dst : int }

type t = {
  n : int;
  srcs : int array; (* edge id -> source node *)
  dsts : int array; (* edge id -> destination node *)
  out_offsets : int array; (* length n+1; CSR rows over out-edge ids *)
  out_ids : int array;
  in_offsets : int array;
  in_ids : int array;
  structure : int64;
      (* FNV-1a state after n, m and every (src, dst) pair: the prefix
         every model digest over this graph starts from *)
}

let structure_fingerprint ~nodes srcs dsts =
  let module Fp = Iflow_stats.Fingerprint in
  let fp = Fp.create () in
  Fp.add_int fp nodes;
  Fp.add_int fp (Array.length srcs);
  for e = 0 to Array.length srcs - 1 do
    Fp.add_int fp srcs.(e);
    Fp.add_int fp dsts.(e)
  done;
  Fp.value fp

let of_edges ~nodes pairs =
  if nodes < 0 then invalid_arg "Digraph.of_edges: negative node count";
  let m = List.length pairs in
  let srcs = Array.make m 0 and dsts = Array.make m 0 in
  let seen = Hashtbl.create (2 * m) in
  List.iteri
    (fun i (s, d) ->
      if s < 0 || s >= nodes || d < 0 || d >= nodes then
        invalid_arg
          (Printf.sprintf "Digraph.of_edges: edge (%d, %d) out of range" s d);
      if s = d then
        invalid_arg (Printf.sprintf "Digraph.of_edges: self loop at %d" s);
      if Hashtbl.mem seen (s, d) then
        invalid_arg
          (Printf.sprintf "Digraph.of_edges: duplicate edge (%d, %d)" s d);
      Hashtbl.add seen (s, d) ();
      srcs.(i) <- s;
      dsts.(i) <- d)
    pairs;
  let csr key =
    let offsets = Array.make (nodes + 1) 0 in
    for e = 0 to m - 1 do
      let v = key e in
      offsets.(v + 1) <- offsets.(v + 1) + 1
    done;
    for v = 1 to nodes do
      offsets.(v) <- offsets.(v) + offsets.(v - 1)
    done;
    let cursor = Array.copy offsets in
    let ids = Array.make m 0 in
    for e = 0 to m - 1 do
      let v = key e in
      ids.(cursor.(v)) <- e;
      cursor.(v) <- cursor.(v) + 1
    done;
    (offsets, ids)
  in
  let out_offsets, out_ids = csr (fun e -> srcs.(e)) in
  let in_offsets, in_ids = csr (fun e -> dsts.(e)) in
  {
    n = nodes;
    srcs;
    dsts;
    out_offsets;
    out_ids;
    in_offsets;
    in_ids;
    structure = structure_fingerprint ~nodes srcs dsts;
  }

let n_nodes g = g.n
let fingerprint g = g.structure
let n_edges g = Array.length g.srcs
let edge g e = { src = g.srcs.(e); dst = g.dsts.(e) }
let edge_src g e = g.srcs.(e)
let edge_dst g e = g.dsts.(e)
let out_degree g v = g.out_offsets.(v + 1) - g.out_offsets.(v)
let in_degree g v = g.in_offsets.(v + 1) - g.in_offsets.(v)

let out_edge g v k = g.out_ids.(g.out_offsets.(v) + k)

let iter_out g v f =
  for i = g.out_offsets.(v) to g.out_offsets.(v + 1) - 1 do
    f g.out_ids.(i)
  done

let iter_in g v f =
  for i = g.in_offsets.(v) to g.in_offsets.(v + 1) - 1 do
    f g.in_ids.(i)
  done

let fold_out g v ~init ~f =
  let acc = ref init in
  iter_out g v (fun e -> acc := f !acc e);
  !acc

let fold_in g v ~init ~f =
  let acc = ref init in
  iter_in g v (fun e -> acc := f !acc e);
  !acc

let out_edges g v = List.rev (fold_out g v ~init:[] ~f:(fun acc e -> e :: acc))
let in_edges g v = List.rev (fold_in g v ~init:[] ~f:(fun acc e -> e :: acc))
let in_neighbours g v = List.map (fun e -> g.srcs.(e)) (in_edges g v)
let out_neighbours g v = List.map (fun e -> g.dsts.(e)) (out_edges g v)

let find_edge g ~src ~dst =
  let rec scan i stop =
    if i >= stop then None
    else
      let e = g.out_ids.(i) in
      if g.dsts.(e) = dst then Some e else scan (i + 1) stop
  in
  scan g.out_offsets.(src) g.out_offsets.(src + 1)

let mem_edge g ~src ~dst = Option.is_some (find_edge g ~src ~dst)

let edges g =
  List.init (n_edges g) (fun e -> (g.srcs.(e), g.dsts.(e)))

let iter_edges g f =
  for e = 0 to n_edges g - 1 do
    f e (edge g e)
  done

let induced g ~keep =
  if Array.length keep <> g.n then invalid_arg "Digraph.induced: keep size";
  let node_of_sub =
    Array.of_list
      (List.filter (fun v -> keep.(v)) (List.init g.n (fun v -> v)))
  in
  let sub_of_node = Array.make g.n (-1) in
  Array.iteri (fun v' v -> sub_of_node.(v) <- v') node_of_sub;
  let kept_edges = ref [] in
  for e = n_edges g - 1 downto 0 do
    if keep.(g.srcs.(e)) && keep.(g.dsts.(e)) then kept_edges := e :: !kept_edges
  done;
  let edge_of_sub = Array.of_list !kept_edges in
  let pairs =
    List.map
      (fun e -> (sub_of_node.(g.srcs.(e)), sub_of_node.(g.dsts.(e))))
      !kept_edges
  in
  (of_edges ~nodes:(Array.length node_of_sub) pairs, node_of_sub, edge_of_sub)

let pp ppf g =
  Format.fprintf ppf "digraph(%d nodes, %d edges)" g.n (n_edges g)
