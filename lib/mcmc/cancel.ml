(* A cooperative deadline: one absolute monotonic-clock instant fixed at
   creation. The sampler polls [cancelled] at its round and step
   boundaries; nothing is ever interrupted preemptively, so a chain
   observes the deadline only between whole MH steps and the RNG stream
   it abandoned is simply never read again — a deadline cannot perturb
   the draws of anything that completes.

   [none] is the disarmed deadline every non-deadline caller shares:
   its check is one integer compare, which is what keeps the
   machinery's cost on deadline-free traffic under 1%. *)

type t = int (* absolute Clock.now_ns; max_int = no deadline *)

let max_budget_ms = (1 lsl 31) - 1

let none = max_int

let check_ms name = function
  | Some ms when ms >= 1 && ms <= max_budget_ms -> Ok ms
  | v ->
    Error
      (Printf.sprintf "%s must be an integer from 1 to %d milliseconds%s" name
         max_budget_ms
         (match v with Some ms -> Printf.sprintf " (got %d)" ms | None -> ""))

let create ?start_ns ms =
  match check_ms "Cancel.create: a budget" (Some ms) with
  | Error msg -> invalid_arg msg
  | Ok ms ->
    let start_ns =
      match start_ns with Some t -> t | None -> Iflow_obs.Clock.now_ns ()
    in
    start_ns + (ms * 1_000_000)

let cancelled t = t <> max_int && Iflow_obs.Clock.now_ns () >= t
