module Beta_icm = Iflow_core.Beta_icm
module Engine = Iflow_engine.Engine
module Model_io = Iflow_io.Model_io
module Fail = Iflow_fault.Fail
module Retry = Iflow_fault.Retry
module Durable = Iflow_fault.Durable
module Metrics = Iflow_obs.Metrics

let m_fallbacks =
  Metrics.counter
    ~help:"Recoveries that skipped damaged checkpoints for an older generation"
    "iflow_stream_recover_fallbacks_total"

type version = {
  id : int;
  model : Beta_icm.t;
  offset : int;
}

type t = {
  checkpoint_path : string option;
  keep : int;
  retry : Retry.policy;
  mutable current : version;
  mutable checkpoints : int;
}

let create ?checkpoint_path ?(keep = 1) ?(retry = Retry.default) ?(id = 0)
    ?(offset = 0) model =
  if id < 0 || offset < 0 then invalid_arg "Snapshot.create: negative id/offset";
  if keep < 1 then invalid_arg "Snapshot.create: keep must be >= 1";
  {
    checkpoint_path;
    keep;
    retry;
    current = { id; model; offset };
    checkpoints = 0;
  }

let current t = t.current
let published t = t.current.id
let checkpoints_written t = t.checkpoints

let publish t model ~offset =
  let v = { id = t.current.id + 1; model; offset } in
  t.current <- v;
  v

let swap_into t engine =
  Engine.swap engine ~version:t.current.id
    (Beta_icm.expected_icm t.current.model)

let checkpoint t =
  match t.checkpoint_path with
  | None -> ()
  | Some path ->
    (* Rotation happens once, outside the retry: a failed write then
       leaves generation 1 as the newest valid checkpoint, which
       [recover] falls back to. The write itself is atomic, so no
       attempt — interrupted or not — can tear an existing file. *)
    Durable.rotate path ~keep:t.keep;
    Retry.with_policy t.retry (fun () ->
        Fail.point "snapshot.checkpoint";
        Model_io.save_beta_icm
          ~meta:
            [
              ("offset", string_of_int t.current.offset);
              ("version", string_of_int t.current.id);
            ]
          path t.current.model);
    t.checkpoints <- t.checkpoints + 1

(* How many rotated generations recover is willing to walk; deeper
   rotations than this are not written by anything in this repo. *)
let max_generations = 64

let recover_one path =
  let model, meta = Model_io.load_beta_icm_meta path in
  let field name =
    match Option.bind (List.assoc_opt name meta) int_of_string_opt with
    | Some v when v >= 0 -> v
    | Some _ | None ->
      failwith
        (Printf.sprintf
           "%s: not a streaming checkpoint (missing or bad %S header field)"
           path name)
  in
  (model, field "offset", field "version")

let recover ?on_skip path =
  let candidates =
    match Durable.generations path ~limit:max_generations with
    | [] -> [ path ] (* fail with the real "no such file" error *)
    | c -> c
  in
  let rec go skipped = function
    | [] -> assert false
    | [ last ] ->
      (* the oldest generation: let its error propagate undecorated *)
      let r = recover_one last in
      if skipped > 0 then Metrics.add m_fallbacks skipped;
      r
    | candidate :: older -> (
      match recover_one candidate with
      | r ->
        if skipped > 0 then Metrics.add m_fallbacks skipped;
        r
      | exception (Failure msg | Sys_error msg) ->
        (match on_skip with
        | Some f -> f ~path:candidate ~reason:msg
        | None -> ());
        go (skipped + 1) older)
  in
  go 0 candidates
