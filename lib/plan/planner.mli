(** The exact-oracle query planner.

    Decides whether a whole engine query — a conjunction of flow
    targets plus optional flow conditions — is answerable in closed
    form, and answers it when it is. The decision procedure (one
    {!Cone.trace} per target and condition) is conservative: a query is
    answered exactly only when every target cone certifies
    individually, all cones involved are pairwise edge-disjoint (so the
    events ride on disjoint, independent edge coins and conjunctions
    multiply while conditions cancel), and every condition is feasible
    or vacuous. Everything else returns a typed fallback {!reason} for
    the MH path — the planner refuses, it never approximates.

    Counters ([iflow_plan_exact_hits_total],
    [iflow_plan_fallbacks_total{reason=...}],
    [iflow_plan_validations_total],
    [iflow_plan_validate_disagreements_total]) are registered on the
    default {!Iflow_obs.Metrics} registry; callers report outcomes via
    {!record_exact} / {!record_fallback} / {!record_validation}. *)

type reason =
  | Disabled  (** planning turned off by configuration *)
  | Unsound_join of { node : int }
      (** the target cone forks at this model node: two of its routes
          to the sink meet again, so the parent flows at that join share
          ancestry and Eq. 2 would overestimate there *)
  | Target_overlap  (** two target cones share a live edge *)
  | Condition_overlap
      (** a condition cone shares a live edge with the query or with
          another condition *)
  | Condition_infeasible of { c_src : int; c_dst : int; want : bool }
      (** the condition has probability 0 (positive on an impossible
          flow, negative on a certain one) — MH will refuse it too *)

val reason_label : reason -> string
(** Stable snake_case label, used as the metric's [reason] label and on
    the wire. *)

val describe : reason -> string
(** Human-readable one-liner for [explain]. *)

type target_plan = {
  t_src : int;
  t_dst : int;
  cone_nodes : int;
  cone_edges : int;
  probability : float;
  path : int list option;
      (** model node ids of the unique src->dst path, for path cones *)
}

type exact = {
  value : float;  (** the query's exact probability *)
  cone_nodes : int;  (** summed over evaluated target cones *)
  cone_edges : int;
  work : int;  (** edge visits by every cone trace and evaluation *)
  targets : target_plan list;
  dropped_conditions : int;
      (** vacuous negative conditions (on impossible flows) ignored *)
}

val plan :
  Iflow_core.Icm.t ->
  targets:(int * int) list ->
  conditions:(int * int * bool) list ->
  (exact, reason) result
(** [plan icm ~targets ~conditions] — targets are (src, dst) pairs: one
    for a flow query, (src, sink) per sink for a community, the pairs
    themselves for a joint. Linear in the cones it traces: each target
    costs one {!Cone.trace} and, when certified, one {!Cone.flow}
    sweep. Deterministic and RNG-free: planning can never perturb the
    MH path. Raises [Invalid_argument] on out-of-range nodes or an
    empty target list. *)

val record_exact : unit -> unit
val record_fallback : reason -> unit
val record_validation : agreed:bool -> unit
