module Digraph = Iflow_graph.Digraph

type entry = { parents : int array; count : int; leaks : int }
type t = { sink : int; entries : entry list }

let characteristic_key parents =
  String.concat "," (Array.to_list (Array.map string_of_int parents))

let is_strictly_sorted a =
  let ok = ref true in
  for i = 1 to Array.length a - 1 do
    if a.(i - 1) >= a.(i) then ok := false
  done;
  !ok

(* Accumulate (count, leaks) per characteristic into a table, then
   freeze. *)
let freeze sink table =
  let entries =
    Hashtbl.fold
      (fun _key (parents, count, leaks) acc ->
        { parents; count = !count; leaks = !leaks } :: acc)
      table []
  in
  let entries =
    List.sort (fun a b -> compare a.parents b.parents) entries
  in
  { sink; entries }

let observe table parents leaked =
  let key = characteristic_key parents in
  let _, count, leaks =
    match Hashtbl.find_opt table key with
    | Some row -> row
    | None ->
      let row = (parents, ref 0, ref 0) in
      Hashtbl.add table key row;
      row
  in
  incr count;
  if leaked then incr leaks

(* Characteristic of one trace for sink k: in-neighbours active strictly
   before k's activation time, or (when k never activated) active at all. *)
let trace_characteristic g (tr : Evidence.trace) ~sink =
  let t_sink = tr.times.(sink) in
  let parents =
    List.filter
      (fun u ->
        let t_u = tr.times.(u) in
        t_u >= 0 && (t_sink < 0 || t_u < t_sink))
      (Digraph.in_neighbours g sink)
  in
  let parents = Array.of_list (List.sort_uniq compare parents) in
  (parents, t_sink >= 0)

let build g traces ~sink =
  let table = Hashtbl.create 64 in
  List.iter
    (fun (tr : Evidence.trace) ->
      if not (List.mem sink tr.trace_sources) then begin
        let parents, leaked = trace_characteristic g tr ~sink in
        if Array.length parents > 0 then observe table parents leaked
      end)
    traces;
  freeze sink table

let of_table ~sink rows =
  let table = Hashtbl.create 16 in
  List.iter
    (fun (parents, count, leaks) ->
      if count < 0 || leaks < 0 || leaks > count then
        invalid_arg "Summary.of_table: bad counts";
      if not (is_strictly_sorted parents) then
        invalid_arg "Summary.of_table: characteristic not strictly sorted";
      if Array.length parents = 0 then
        invalid_arg "Summary.of_table: empty characteristic";
      let key = characteristic_key parents in
      if Hashtbl.mem table key then
        invalid_arg "Summary.of_table: duplicate characteristic";
      Hashtbl.add table key (parents, ref count, ref leaks))
    rows;
  freeze sink table

let n_entries t = List.length t.entries
let total_observations t = List.fold_left (fun a e -> a + e.count) 0 t.entries
let total_leaks t = List.fold_left (fun a e -> a + e.leaks) 0 t.entries

let parents_union t =
  let module IS = Set.Make (Int) in
  let set =
    List.fold_left
      (fun acc e -> Array.fold_left (fun acc p -> IS.add p acc) acc e.parents)
      IS.empty t.entries
  in
  Array.of_list (IS.elements set)

let unambiguous t =
  List.filter_map
    (fun e ->
      if Array.length e.parents = 1 then Some (e.parents.(0), e.leaks, e.count)
      else None)
    t.entries

let characteristic_prob prob parents =
  let survive =
    Array.fold_left (fun acc j -> acc *. (1.0 -. prob j)) 1.0 parents
  in
  1.0 -. survive

let log_term p n l =
  let lf = float_of_int l and nf = float_of_int n in
  let pos = if l = 0 then 0.0 else lf *. Float.log (Float.max p 1e-300) in
  let neg =
    if n = l then 0.0
    else (nf -. lf) *. Float.log (Float.max (1.0 -. p) 1e-300)
  in
  pos +. neg

let log_likelihood t ~prob =
  List.fold_left
    (fun acc e ->
      acc +. log_term (characteristic_prob prob e.parents) e.count e.leaks)
    0.0 t.entries

let log_likelihood_exact t ~prob =
  List.fold_left
    (fun acc e ->
      acc
      +. Iflow_stats.Special.log_choose e.count e.leaks
      +. log_term (characteristic_prob prob e.parents) e.count e.leaks)
    0.0 t.entries

let pp ppf t =
  Format.fprintf ppf "summary(sink %d)@." t.sink;
  Format.fprintf ppf "%-20s %8s %8s@." "characteristic" "count" "leaks";
  List.iter
    (fun e ->
      let cs =
        String.concat " "
          (Array.to_list (Array.map string_of_int e.parents))
      in
      Format.fprintf ppf "{%s}%s %8d %8d@." cs
        (String.make (max 0 (18 - String.length cs)) ' ')
        e.count e.leaks)
    t.entries
