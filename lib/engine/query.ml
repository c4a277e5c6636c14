module Icm = Iflow_core.Icm
module Pseudo_state = Iflow_core.Pseudo_state
module Reach = Iflow_graph.Reach
module Forward = Iflow_core.Forward

type kind =
  | Flow of { src : int; dst : int }
  | Community of { src : int; sinks : int list }
  | Joint of { flows : (int * int) list }

type t = { kind : kind; conditions : (int * int * bool) list }

let sort_conditions cs =
  List.sort_uniq (fun (a : int * int * bool) b -> compare a b) cs

let v ?(conditions = []) kind =
  let kind =
    (* canonicalise set-like payloads so equal queries get equal keys *)
    match kind with
    | Flow _ as k -> k
    | Community { src; sinks } ->
      Community { src; sinks = List.sort_uniq compare sinks }
    | Joint { flows } -> Joint { flows = List.sort_uniq compare flows }
  in
  (match kind with
  | Flow { src; dst } ->
    if src < 0 || dst < 0 then invalid_arg "Query: negative node id"
  | Community { src; sinks } ->
    if src < 0 || List.exists (fun s -> s < 0) sinks then
      invalid_arg "Query: negative node id";
    if sinks = [] then invalid_arg "Query: empty sink list"
  | Joint { flows } ->
    if List.exists (fun (u, d) -> u < 0 || d < 0) flows then
      invalid_arg "Query: negative node id";
    if flows = [] then invalid_arg "Query: empty flow list");
  (* refuse contradictory and self-negative conditions here, so a wire
     request carrying them is a bad request *)
  if conditions <> [] then ignore (Iflow_mcmc.Conditions.v conditions);
  { kind; conditions = sort_conditions conditions }

let flow ?conditions ~src ~dst () = v ?conditions (Flow { src; dst })
let community ?conditions ~src ~sinks () = v ?conditions (Community { src; sinks })
let joint ?conditions ~flows () = v ?conditions (Joint { flows })

let kind t = t.kind
let conditions t = t.conditions

let targets t =
  match t.kind with
  | Flow { src; dst } -> [ (src, dst) ]
  | Community { src; sinks } -> List.map (fun s -> (src, s)) sinks
  | Joint { flows } -> flows

let max_node t =
  let pairs = targets t @ List.map (fun (u, d, _) -> (u, d)) t.conditions in
  List.fold_left (fun m (u, d) -> max m (max u d)) 0 pairs

let indicator_ws ws icm t state =
  match t.kind with
  | Flow { src; dst } -> Pseudo_state.flow_ws ws icm state ~src ~dst
  | Community { src; sinks } ->
    Pseudo_state.reachable_ws ws icm state ~sources:[ src ];
    List.for_all (fun v -> Reach.marked ws v) sinks
  | Joint { flows } ->
    List.for_all
      (fun (src, dst) -> Pseudo_state.flow_ws ws icm state ~src ~dst)
      flows

let rec all_flow fw rng = function
  | [] -> true
  | (src, dst) :: rest ->
    Forward.flow fw rng ~src ~dst && all_flow fw rng rest

let draw fw rng t =
  Forward.fresh fw;
  match t.kind with
  | Flow { src; dst } -> Forward.flow fw rng ~src ~dst
  | Community { src; sinks } -> Forward.community fw rng ~src ~sinks
  | Joint { flows } -> all_flow fw rng flows

let key t =
  let b = Buffer.create 64 in
  (match t.kind with
  | Flow { src; dst } -> Buffer.add_string b (Printf.sprintf "flow %d %d" src dst)
  | Community { src; sinks } ->
    Buffer.add_string b (Printf.sprintf "community %d" src);
    List.iter (fun s -> Buffer.add_string b (Printf.sprintf " %d" s)) sinks
  | Joint { flows } ->
    Buffer.add_string b "joint";
    List.iter
      (fun (u, d) -> Buffer.add_string b (Printf.sprintf " %d>%d" u d))
      flows);
  if t.conditions <> [] then begin
    Buffer.add_string b " |";
    List.iter
      (fun (u, d, a) ->
        Buffer.add_string b
          (Printf.sprintf " %d:%d:%c" u d (if a then '+' else '-')))
      t.conditions
  end;
  Buffer.contents b

let equal a b = key a = key b

let pp ppf t = Format.pp_print_string ppf (key t)

(* ----- JSONL decoding ----- *)

let ( let* ) r f = Result.bind r f

let int_field name json =
  match Jsonl.member name json with
  | Some v -> (
    match Jsonl.to_int v with
    | Some i -> Ok i
    | None -> Error (Printf.sprintf "field %S: expected an integer" name))
  | None -> Error (Printf.sprintf "missing field %S" name)

let pair_of_json what = function
  | Jsonl.List [ a; b ] -> (
    match (Jsonl.to_int a, Jsonl.to_int b) with
    | Some u, Some d -> Ok (u, d)
    | _ -> Error (Printf.sprintf "%s: expected [int, int]" what))
  | _ -> Error (Printf.sprintf "%s: expected [int, int]" what)

let condition_of_json = function
  | Jsonl.List [ u; d; a ] -> (
    let sign =
      match a with
      | Jsonl.Bool b -> Ok b
      | Jsonl.Str "+" -> Ok true
      | Jsonl.Str "-" -> Ok false
      | _ -> Error "condition: third element must be true/false or \"+\"/\"-\""
    in
    match (Jsonl.to_int u, Jsonl.to_int d, sign) with
    | Some u, Some d, Ok a -> Ok (u, d, a)
    | _, _, (Error _ as e) -> e
    | _ -> Error "condition: expected [int, int, sign]")
  | _ -> Error "condition: expected [src, dst, sign]"

let rec collect f = function
  | [] -> Ok []
  | x :: rest ->
    let* y = f x in
    let* ys = collect f rest in
    Ok (y :: ys)

let of_json json =
  let* conditions =
    match Jsonl.member "conditions" json with
    | None -> Ok []
    | Some (Jsonl.List cs) -> collect condition_of_json cs
    | Some _ -> Error "field \"conditions\": expected a list"
  in
  let* kind =
    match Option.bind (Jsonl.member "type" json) Jsonl.to_string with
    | Some "flow" ->
      let* src = int_field "src" json in
      let* dst = int_field "dst" json in
      Ok (Flow { src; dst })
    | Some "community" ->
      let* src = int_field "src" json in
      let* sinks =
        match Option.bind (Jsonl.member "sinks" json) Jsonl.to_list with
        | Some vs ->
          collect
            (fun v ->
              match Jsonl.to_int v with
              | Some i -> Ok i
              | None -> Error "field \"sinks\": expected integers")
            vs
        | None -> Error "missing field \"sinks\""
      in
      Ok (Community { src; sinks })
    | Some "joint" ->
      let* flows =
        match Option.bind (Jsonl.member "flows" json) Jsonl.to_list with
        | Some vs -> collect (pair_of_json "flows") vs
        | None -> Error "missing field \"flows\""
      in
      Ok (Joint { flows })
    | Some other -> Error (Printf.sprintf "unknown query type %S" other)
    | None -> Error "missing field \"type\""
  in
  match v ~conditions kind with
  | q -> Ok q
  | exception Invalid_argument msg -> Error msg

let of_line ?lineno line =
  let r =
    let* json = Jsonl.parse line in
    of_json json
  in
  match (r, lineno) with
  | Error msg, Some n -> Error (Printf.sprintf "line %d: %s" n msg)
  | _ -> r
