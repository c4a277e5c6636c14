module Engine = Iflow_engine.Engine
module Query = Iflow_engine.Query
module Jsonl = Iflow_engine.Jsonl

type error_code =
  | Bad_request
  | Bad_query
  | Over_capacity
  | Quota_exceeded
  | Chains_failed
  | Shutting_down
  | Deadline_exceeded
  | Deadline_unmeetable

let code_string = function
  | Bad_request -> "bad_request"
  | Bad_query -> "bad_query"
  | Over_capacity -> "over_capacity"
  | Quota_exceeded -> "quota_exceeded"
  | Chains_failed -> "chains_failed"
  | Shutting_down -> "shutting_down"
  | Deadline_exceeded -> "deadline_exceeded"
  | Deadline_unmeetable -> "deadline_unmeetable"

let escape s =
  let b = Buffer.create (String.length s + 2) in
  Buffer.add_char b '"';
  Iflow_obs.Json.escape b s;
  Buffer.add_char b '"';
  Buffer.contents b

(* %.17g round-trips every finite double through float_of_string, so a
   client parsing the line recovers the engine's floats bit for bit.
   JSON has no nan/inf literals: non-finite diagnostics (rhat on
   zero-variance samples, for one) serialize as null and parse back as
   nan. *)
let f17 x =
  if not (Float.is_finite x) then "null"
  else if Float.is_integer x && Float.abs x < 1e15 then
    Printf.sprintf "%.1f" x
  else Printf.sprintf "%.17g" x

let result_line ?id ?request_id ?version ?(degraded = false) (r : Engine.result)
    =
  let b = Buffer.create 256 in
  Buffer.add_char b '{';
  (match id with
  | Some id -> Buffer.add_string b (Printf.sprintf "\"id\":%s," (escape id))
  | None -> ());
  (match request_id with
  | Some rid ->
    Buffer.add_string b (Printf.sprintf "\"request_id\":%s," (escape rid))
  | None -> ());
  Buffer.add_string b (Printf.sprintf "\"estimate\":%s," (f17 r.Engine.estimate));
  Buffer.add_string b (Printf.sprintf "\"rhat\":%s," (f17 r.Engine.rhat));
  Buffer.add_string b (Printf.sprintf "\"ess\":%s," (f17 r.Engine.ess));
  Buffer.add_string b (Printf.sprintf "\"mcse\":%s," (f17 r.Engine.mcse));
  Buffer.add_string b (Printf.sprintf "\"samples\":%d," r.Engine.total_samples);
  Buffer.add_string b (Printf.sprintf "\"chains\":%d," r.Engine.chains_used);
  Buffer.add_string b
    (Printf.sprintf "\"cached\":%b," r.Engine.cached);
  Buffer.add_string b
    (Printf.sprintf "\"partial\":%b," r.Engine.partial);
  (match r.Engine.plan with
  | Engine.Plan_exact { cone_nodes } ->
    Buffer.add_string b "\"plan\":\"exact\",";
    Buffer.add_string b (Printf.sprintf "\"plan_cone\":%d," cone_nodes)
  | Engine.Plan_mh { fallback; sampler } ->
    Buffer.add_string b
      (Printf.sprintf "\"plan\":\"%s\"," (Engine.sampler_label sampler));
    (match fallback with
    | Some reason ->
      Buffer.add_string b
        (Printf.sprintf "\"plan_fallback\":%s," (escape reason))
    | None -> ()));
  Buffer.add_string b (Printf.sprintf "\"degraded\":%b," degraded);
  (match version with
  | Some v -> Buffer.add_string b (Printf.sprintf "\"version\":%d," v)
  | None -> ());
  Buffer.add_string b
    (Printf.sprintf "\"digest\":%s}" (escape r.Engine.model_digest));
  Buffer.contents b

let error_line ?id ?request_id ?retry_after_ms code msg =
  let b = Buffer.create 128 in
  Buffer.add_char b '{';
  (match id with
  | Some id -> Buffer.add_string b (Printf.sprintf "\"id\":%s," (escape id))
  | None -> ());
  (match request_id with
  | Some rid ->
    Buffer.add_string b (Printf.sprintf "\"request_id\":%s," (escape rid))
  | None -> ());
  Buffer.add_string b
    (Printf.sprintf "\"error\":%s," (escape (code_string code)));
  (match retry_after_ms with
  | Some ms -> Buffer.add_string b (Printf.sprintf "\"retry_after_ms\":%d," ms)
  | None -> ());
  Buffer.add_string b (Printf.sprintf "\"message\":%s}" (escape msg));
  Buffer.contents b

let parsed_result json =
  let num name =
    match Jsonl.member name json with
    | Some (Jsonl.Num f) -> Ok f
    | Some Jsonl.Null -> Ok Float.nan
    | _ -> Error (Printf.sprintf "missing numeric field %S" name)
  in
  let bool_f name =
    match Jsonl.member name json with
    | Some (Jsonl.Bool v) -> Ok v
    | _ -> Error (Printf.sprintf "missing boolean field %S" name)
  in
  let ( let* ) = Result.bind in
  match Jsonl.member "error" json with
  | Some (Jsonl.Str e) -> Error (Printf.sprintf "error response: %s" e)
  | _ ->
    let* estimate = num "estimate" in
    let* rhat = num "rhat" in
    let* ess = num "ess" in
    let* mcse = num "mcse" in
    let* samples = num "samples" in
    let* chains = num "chains" in
    let* cached = bool_f "cached" in
    (* absent on lines from pre-deadline peers: default false *)
    let partial =
      match Jsonl.member "partial" json with
      | Some (Jsonl.Bool v) -> v
      | _ -> false
    in
    let* digest =
      match Jsonl.member "digest" json with
      | Some (Jsonl.Str d) -> Ok d
      | _ -> Error "missing field \"digest\""
    in
    let version = Option.bind (Jsonl.member "version" json) Jsonl.to_int in
    (* lines from pre-planner peers carry no "plan" field: treat them
       as MH answers with no fallback tag; "direct" is the cascade
       sampler *)
    let plan =
      match Jsonl.member "plan" json with
      | Some (Jsonl.Str "exact") ->
        let cone_nodes =
          Option.bind (Jsonl.member "plan_cone" json) Jsonl.to_int
          |> Option.value ~default:0
        in
        (* lines from older peers may also carry "plan_validated",
           which is ignored *)
        Engine.Plan_exact { cone_nodes }
      | _ ->
        let fallback =
          match Jsonl.member "plan_fallback" json with
          | Some (Jsonl.Str s) -> Some s
          | _ -> None
        in
        let sampler =
          match Jsonl.member "plan" json with
          | Some (Jsonl.Str "direct") -> Engine.Direct
          | _ -> Engine.Mh
        in
        Engine.Plan_mh { fallback; sampler }
    in
    Ok
      ( {
          Engine.estimate;
          rhat;
          ess;
          mcse;
          total_samples = int_of_float samples;
          chains_used = int_of_float chains;
          cached;
          partial;
          model_digest = digest;
          plan;
        },
        version )
