module Digraph = Iflow_graph.Digraph
module Traverse = Iflow_graph.Traverse
module Reach = Iflow_graph.Reach
module Rng = Iflow_stats.Rng

type t = Bytes.t

let create m = Bytes.make m '\000'
let n_edges t = Bytes.length t
let get t e = Bytes.unsafe_get t e <> '\000'
let set t e b = Bytes.unsafe_set t e (if b then '\001' else '\000')
let flip t e = set t e (not (get t e))
let copy = Bytes.copy

let count_active t =
  let acc = ref 0 in
  for e = 0 to Bytes.length t - 1 do
    if get t e then incr acc
  done;
  !acc

let active_list t =
  let acc = ref [] in
  for e = Bytes.length t - 1 downto 0 do
    if get t e then acc := e :: !acc
  done;
  !acc

let equal = Bytes.equal

let sample rng icm =
  let m = Icm.n_edges icm in
  let t = create m in
  for e = 0 to m - 1 do
    if Icm.fires icm e (Rng.bits53 rng) then set t e true
  done;
  t

let log_prob icm t =
  let m = Icm.n_edges icm in
  if Bytes.length t <> m then invalid_arg "Pseudo_state.log_prob: size mismatch";
  let acc = ref 0.0 in
  (try
     for e = 0 to m - 1 do
       let p = Icm.prob icm e in
       let term = if get t e then p else 1.0 -. p in
       if term <= 0.0 then begin
         acc := neg_infinity;
         raise Exit
       end;
       acc := !acc +. Float.log term
     done
   with Exit -> ());
  !acc

let reachable icm t ~sources =
  Traverse.reachable_from ~active:(get t) (Icm.graph icm) sources

let flow icm t ~src ~dst = (reachable icm t ~sources:[ src ]).(dst)

let reachable_ws ws icm t ~sources =
  Reach.bfs_sources ws ~active:(get t) (Icm.graph icm) sources

let flow_ws ws icm t ~src ~dst =
  Reach.bfs ws ~active:(get t) (Icm.graph icm) ~src;
  Reach.marked ws dst

let derive_active_edges icm t ~sources =
  let g = Icm.graph icm in
  let nodes = reachable icm t ~sources in
  Array.init (Digraph.n_edges g) (fun e ->
      get t e && nodes.(Digraph.edge_src g e))

let pp ppf t =
  Format.fprintf ppf "[";
  for e = 0 to Bytes.length t - 1 do
    Format.fprintf ppf "%c" (if get t e then '1' else '0')
  done;
  Format.fprintf ppf "]"
