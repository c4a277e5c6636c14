(** Evidence summaries for unattributed learning (paper Section V-B,
    Table I).

    For a sink node [k], the {i characteristic} of an object is the set
    of [k]'s in-neighbours that were active before [k] (just before [k]
    activated, or at the end of the data when [k] never activated). A
    summary maps each distinct characteristic to how often it was
    observed and how often it "leaked" (resulted in [k] activating).
    The summary is a sufficient statistic for the per-sink model — the
    test suite checks this. *)

type entry = {
  parents : int array; (** the characteristic, sorted ascending *)
  count : int; (** n_J: observations of this characteristic *)
  leaks : int; (** L_J: observations where the sink then activated *)
}

type t = private { sink : int; entries : entry list }

val build : Iflow_graph.Digraph.t -> Evidence.unattributed -> sink:int -> t
(** Summarise every trace for one sink. Objects for which [k] is a
    source, or whose characteristic is empty, carry no information about
    [k]'s in-edges and are dropped. *)

val of_table : sink:int -> (int array * int * int) list -> t
(** Build from explicit (characteristic, count, leaks) rows — used for
    the paper's Table I / Table II examples. Raises [Invalid_argument]
    on duplicate characteristics, [leaks > count], or unsorted rows with
    duplicate parents. *)

val n_entries : t -> int
val total_observations : t -> int
val total_leaks : t -> int

val parents_union : t -> int array
(** Every node appearing in some characteristic, sorted — the candidate
    parents the learners estimate edge probabilities for. *)

val unambiguous : t -> (int * int * int) list
(** [(parent, leaks, count)] for the singleton characteristics — the
    rows that attribute unambiguously, used for the paper's informed
    Beta priors and for the "filtered" baseline. *)

val log_likelihood : t -> prob:(int -> float) -> float
(** [ln Pr(D_k | M_k)] up to the constant binomial coefficients:
    for each characteristic J with probability
    [p_J = 1 - prod_{j in J} (1 - prob j)], add
    [L_J ln p_J + (n_J - L_J) ln (1 - p_J)] (paper Equation 9). *)

val log_likelihood_exact : t -> prob:(int -> float) -> float
(** Same including the [ln (n_J choose L_J)] constants. *)

val pp : Format.formatter -> t -> unit
