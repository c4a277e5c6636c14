(* A cooperative cancellation token: one absolute monotonic-clock
   deadline fixed at creation, plus an explicit [fire] for callers
   that cancel for another reason. The sampler polls [cancelled]
   at its round and step boundaries; nothing is ever interrupted
   preemptively, so a chain observes cancellation only between whole
   MH steps and the RNG stream it abandoned is simply never read
   again — cancellation cannot perturb the draws of anything that
   completes.

   [none] is the disarmed token every non-deadline caller shares: its
   check is one atomic load and one integer compare, which is what
   keeps the machinery's cost on deadline-free traffic under 1%. *)

type t = {
  deadline_ns : int; (* absolute Clock.now_ns; max_int = no deadline *)
  fired : string option Atomic.t; (* Some reason once explicitly fired *)
}

let max_budget_ms = (1 lsl 31) - 1

let none = { deadline_ns = max_int; fired = Atomic.make None }

let create ?deadline_ns () =
  let deadline_ns = Option.value deadline_ns ~default:max_int in
  { deadline_ns; fired = Atomic.make None }

let with_budget ~budget_ns () =
  if budget_ns < 0 then invalid_arg "Cancel.with_budget: negative budget";
  create ~deadline_ns:(Iflow_obs.Clock.now_ns () + budget_ns) ()

let deadline_ns t = if t.deadline_ns = max_int then None else Some t.deadline_ns

(* first fire wins: a token fired "disconnect" and then expiring still
   reports the explicit reason *)
let fire ?(reason = "cancelled") t =
  ignore (Atomic.compare_and_set t.fired None (Some reason) : bool)

let cancelled t =
  match Atomic.get t.fired with
  | Some _ -> true
  | None ->
    t.deadline_ns <> max_int && Iflow_obs.Clock.now_ns () >= t.deadline_ns

type status = Live | Expired | Fired of string

let status t =
  match Atomic.get t.fired with
  | Some reason -> Fired reason
  | None ->
    if t.deadline_ns <> max_int && Iflow_obs.Clock.now_ns () >= t.deadline_ns
    then Expired
    else Live

let reason t =
  match status t with
  | Live -> None
  | Expired -> Some "deadline expired"
  | Fired reason -> Some reason

let remaining_ns t =
  if t.deadline_ns = max_int then None
  else Some (t.deadline_ns - Iflow_obs.Clock.now_ns ())
