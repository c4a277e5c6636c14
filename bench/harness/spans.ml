(* The traced run's span recorder. Spans live only in this process, in
   memory, and are recorded around calls into the layers' public
   functions from the harness's own code: the program under test is not
   instrumented. [write] dumps them as Chrome trace-event JSON. *)

module Clock = Iflow_obs.Clock

type span = {
  id : int;
  name : string;
  rid : string;  (** request id; "" when the span is not one request *)
  parent : int;  (** -1 at the root *)
  ops : int;  (** calls the span covers (batched micro-measurements) *)
  t0 : int;
  mutable t1 : int;
}

let recorded : span list ref = ref []
let count = ref 0
let stack : int list ref = ref []

let open_span ?(rid = "") ?(ops = 1) ?t0 name =
  let id = !count in
  incr count;
  let parent = match !stack with p :: _ -> p | [] -> -1 in
  let t0 = match t0 with Some t -> t | None -> Clock.now_ns () in
  let s = { id; name; rid; parent; ops; t0; t1 = t0 } in
  recorded := s :: !recorded;
  s

(* [f ()] inside a new span; returns its value and the closed span *)
let with_ ?rid ?ops name f =
  let s = open_span ?rid ?ops name in
  stack := s.id :: !stack;
  let finish () =
    s.t1 <- Clock.now_ns ();
    stack := List.tl !stack
  in
  match f () with
  | v ->
    finish ();
    (v, s)
  | exception e ->
    finish ();
    raise e

let drop name = recorded := List.filter (fun s -> s.name <> name) !recorded

(* A child whose extent the callee reported itself (e.g. the plan and
   sample phases [Engine.query] fills in), placed under the innermost
   open span or under [parent]. *)
let child ~parent ~name ~t0 ~dur =
  stack := parent.id :: !stack;
  let s = open_span ~rid:parent.rid ~t0 name in
  s.t1 <- t0 + dur;
  stack := List.tl !stack

let dur s = s.t1 - s.t0

(* Duration minus the part covered by direct children; children of one
   span never overlap because the traced run is single-threaded. *)
let self_ns s =
  List.fold_left
    (fun acc c -> if c.parent = s.id then acc - dur c else acc)
    (dur s) !recorded

let per_op s = float_of_int (dur s) /. float_of_int s.ops

let write path =
  let oc = open_out path in
  output_string oc "{\"traceEvents\":[\n";
  List.iteri
    (fun i s ->
      Printf.fprintf oc
        "%s{\"name\":%s,\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"id\":%d,\"parent\":%d,\"rid\":%s,\"ops\":%d}}\n"
        (if i = 0 then "" else ",")
        (Iflow_serve.Wire.escape s.name)
        (float_of_int s.t0 /. 1e3)
        (float_of_int (dur s) /. 1e3)
        s.id s.parent
        (Iflow_serve.Wire.escape s.rid)
        s.ops)
    (List.rev !recorded);
  output_string oc "]}\n";
  close_out oc
