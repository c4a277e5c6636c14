(** Sliding-window drift detection over per-edge firing rates.

    Each Bernoulli edge trial the {!Online} updater absorbs is also fed
    here. Per edge we keep a reference rate (seeded from the posterior
    mean, with the posterior's pseudo-count mass as its sample size) and
    a tumbling window of the most recent trials. When an edge's window
    fills, its empirical rate is compared against the reference with the
    two-sample Hoeffding bound used by AALpy's [HoeffdingChecker]:

    {v
    |p_win - p_ref| > (sqrt(1/n_ref) + sqrt(1/n_win)) * sqrt(ln(2/delta) / 2)
    v}

    A window that passes is absorbed into the reference (so the
    reference sharpens over a stationary stream); a window that fails
    raises an {!alert}, leaves the reference untouched, and flags the
    edge — so a persistent shift keeps alerting once per window until
    the model is re-anchored with {!reset}. Detection delay is bounded:
    a shifted edge alerts within at most [2 * window - 1] of its own
    trials after the shift (the partial window in flight, plus one full
    window). *)

type config = {
  window : int;
      (** per-edge trials per test window (and minimum detection
          resolution) *)
  delta : float;
      (** significance level of the Hoeffding bound; smaller = fewer
          false alarms, larger detection threshold *)
  min_reference : float;
      (** do not test an edge until its reference mass (posterior
          pseudo-counts plus absorbed windows) reaches this *)
}

val default_config : config
(** window 200, delta 1e-3, min_reference 50. *)

type alert = {
  edge : int;
  src : int;
  dst : int;
  reference_rate : float;
  window_rate : float;
  window_trials : int;
  threshold : float;  (** the bound the deviation exceeded *)
  at_trial : int;     (** global trial count when raised *)
}

type t

val create : config -> Iflow_core.Beta_icm.t -> t
(** Reference rates and masses from the model's posterior. Raises
    [Invalid_argument] on a non-positive window or delta outside
    (0, 1). *)

val observe : t -> edge:int -> fired:bool -> alert option
(** Feed one trial; returns the alert if this trial completed a window
    that failed the test. *)

val reset : t -> Iflow_core.Beta_icm.t -> unit
(** Re-anchor on a (possibly re-shaped) model: references are re-seeded
    from its posterior, windows and flags cleared, cumulative alert
    history and trial count kept. Used after graph-change events, where
    edge ids shift. *)

val flagged : t -> int
(** Edges currently flagged as drifted — the global drift signal. *)

val is_flagged : t -> int -> bool

val alerts : t -> alert list
(** All alerts so far, oldest first. *)

val alert_count : t -> int
(** [List.length (alerts t)], O(1). *)

val pp_alert : Format.formatter -> alert -> unit
