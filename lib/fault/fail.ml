module Metrics = Iflow_obs.Metrics

let m_injected =
  Metrics.counter ~help:"Failpoint injections that actually fired"
    "iflow_fault_injections_total"

exception Injected of string

(* A point fires [Raise] for now; the action type leaves room for
   delays/returns without touching call sites. *)
type action = Raise

type trigger = {
  prob : float;            (* fire with this probability per evaluation *)
  mutable remaining : int; (* max 0 = unlimited; counts down otherwise *)
  action : action;
  mutable hits : int;
}

(* Fast path: one atomic load and a branch, so points can be planted at
   per-line / per-round frequency and cost nothing while disarmed. Everything behind the
   flag is guarded by [lock]; points are evaluated from every serving domain. *)
let armed = Atomic.make false
let lock = Mutex.create ()
let points : (string, trigger) Hashtbl.t = Hashtbl.create 16

(* Deterministic splitmix64 stream for probability triggers, so a chaos
   run is reproducible given IFLOW_FAILPOINTS_SEED. *)
let rng_state = ref 0x2E3779B97F4A7C15
let set_seed seed = rng_state := seed lxor 0x2E3779B97F4A7C15

let next_uniform () =
  let z = !rng_state + 0x2E3779B97F4A7C15 in
  rng_state := z;
  let z = (z lxor (z lsr 30)) * 0x3F58476D1CE4E5B9 in
  let z = (z lxor (z lsr 27)) * 0x14D049BB133111EB in
  let z = (z lxor (z lsr 31)) land max_int in
  float_of_int z /. float_of_int max_int

let sync_armed () = Atomic.set armed (Hashtbl.length points > 0)

let arm ?(prob = 1.0) ?count name =
  if not (prob >= 0.0 && prob <= 1.0) then
    invalid_arg "Fail.arm: prob outside [0, 1]";
  (match count with
  | Some c when c < 1 -> invalid_arg "Fail.arm: count must be >= 1"
  | _ -> ());
  Mutex.protect lock (fun () ->
      Hashtbl.replace points name
        {
          prob;
          remaining = Option.value count ~default:0;
          action = Raise;
          hits = 0;
        };
      sync_armed ())

let disarm name =
  Mutex.protect lock (fun () ->
      Hashtbl.remove points name;
      sync_armed ())

let reset () =
  Mutex.protect lock (fun () ->
      Hashtbl.reset points;
      sync_armed ())

let hits name =
  Mutex.protect lock (fun () ->
      match Hashtbl.find_opt points name with
      | Some t -> t.hits
      | None -> 0)

(* spec grammar, after the FreeBSD/Rust `fail` crates:
     name=task;name=task;...
   where task is [P%][N*]raise or off, e.g.
     snapshot.rename=1%raise   io.read=3*raise   *=0.5%2*raise *)
let parse_task name task =
  let err fmt =
    Printf.ksprintf
      (fun m -> Error (Printf.sprintf "failpoint %s: %s" name m))
      fmt
  in
  let prob, rest =
    match String.index_opt task '%' with
    | Some i -> (
      match float_of_string_opt (String.sub task 0 i) with
      | Some p when p >= 0.0 && p <= 100.0 ->
        ( Some (p /. 100.0),
          String.sub task (i + 1) (String.length task - i - 1) )
      | Some _ | None -> (None, task))
    | None -> (None, task)
  in
  if prob = None && String.contains task '%' then
    err "bad probability in %S" task
  else
    let count, rest =
      match String.index_opt rest '*' with
      | Some i -> (
        match int_of_string_opt (String.sub rest 0 i) with
        | Some c when c >= 1 ->
          (Some c, String.sub rest (i + 1) (String.length rest - i - 1))
        | Some _ | None -> (None, rest))
      | None -> (None, rest)
    in
    if count = None && String.contains rest '*' then
      err "bad count in %S" task
    else
      match rest with
      | "raise" -> Ok (Some (Option.value prob ~default:1.0, count))
      | "off" -> Ok None
      | other -> err "unknown action %S (use raise or off)" other

let configure spec =
  let entries =
    List.filter (fun s -> String.trim s <> "")
      (String.split_on_char ';' spec)
  in
  let rec go = function
    | [] -> Ok ()
    | entry :: rest -> (
      match String.index_opt entry '=' with
      | None -> Error (Printf.sprintf "failpoint spec %S: missing '='" entry)
      | Some i -> (
        let name = String.trim (String.sub entry 0 i) in
        let task =
          String.trim (String.sub entry (i + 1) (String.length entry - i - 1))
        in
        if name = "" then Error (Printf.sprintf "failpoint spec %S: empty name" entry)
        else
          match parse_task name task with
          | Error _ as e -> e
          | Ok None ->
            disarm name;
            go rest
          | Ok (Some (prob, count)) ->
            arm ~prob ?count name;
            go rest))
  in
  go entries

let env_var = "IFLOW_FAILPOINTS"
let env_seed_var = "IFLOW_FAILPOINTS_SEED"

let setup_from_env () =
  (match Option.bind (Sys.getenv_opt env_seed_var) int_of_string_opt with
  | Some seed -> set_seed seed
  | None -> ());
  match Sys.getenv_opt env_var with
  | None | Some "" -> Ok ()
  | Some spec -> configure spec

(* Arm from the environment at load time, so any binary linking the
   library honours IFLOW_FAILPOINTS without code changes. A malformed
   spec must not be silently ignored in a chaos run: fail fast. *)
let () =
  match setup_from_env () with
  | Ok () -> ()
  | Error msg ->
    prerr_endline ("fatal: " ^ env_var ^ ": " ^ msg);
    exit 2

let evaluate name =
  let fire =
    Mutex.protect lock (fun () ->
        let t =
          match Hashtbl.find_opt points name with
          | Some t -> Some t
          | None -> Hashtbl.find_opt points "*"
        in
        match t with
        | None -> false
        | Some t ->
          if t.remaining < 0 then false
          else if t.prob < 1.0 && next_uniform () >= t.prob then false
          else begin
            if t.remaining > 0 then
              t.remaining <-
                (if t.remaining = 1 then -1 (* exhausted *) else t.remaining - 1);
            t.hits <- t.hits + 1;
            true
          end)
  in
  if fire then begin
    Metrics.inc m_injected;
    match Raise with Raise -> raise (Injected name)
  end

let point name = if Atomic.get armed then evaluate name
let enabled () = Atomic.get armed
