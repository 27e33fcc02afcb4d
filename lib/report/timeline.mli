(** Transient-fidelity scorecard: does the clone track the original
    *through* events, not just at steady state?

    Built from the two windowed {!Ditto_obs.Timeseries} collectors of a
    {!Ditto_core.Pipeline.validate_under} run (actual and clone side).
    Per window it compares end-to-end throughput and p95 latency and
    keeps the worse of the two relative errors; the summary is the worst
    and mean window error plus the time-to-reconvergence after each
    fault marker — the delay until both sides agree again (two
    consecutive windows within [threshold_pct]), which by construction is
    at least one window length whenever a fault fired. Multi-event plans
    (e.g. flaky-link's repeated down/up toggles) get one [faults] row per
    marker; the legacy [fault_at]/[reconverge_seconds] fields keep
    reporting the first. *)

type window_row = {
  w_index : int;
  w_start : float;  (** seconds from run start *)
  w_actual_qps : float;
  w_clone_qps : float;
  w_actual_p95 : float;
  w_clone_p95 : float;  (** seconds *)
  w_err_pct : float;  (** max of the qps and p95 relative errors *)
}

type fault_row = {
  f_at : float;  (** marker time, seconds from run start *)
  f_label : string;  (** the fault plan's marker label *)
  f_reconverged : bool;
  f_reconverge_seconds : float;
      (** same convention as [reconverge_seconds], measured from this
          marker *)
}

type t = {
  app : string;
  plan : string option;
  window_seconds : float;
  threshold_pct : float;
  rows : window_row list;  (** one per window, in time order *)
  worst_window_err_pct : float;
  mean_window_err_pct : float;
  fault_at : float option;  (** first fault marker, seconds from run start *)
  reconverged : bool;
  reconverge_seconds : float;
      (** fault marker -> end of the first window of two consecutive
          compliant windows; [0.] when no fault fired; capped at the end
          of the run (with [reconverged = false]) when agreement never
          returns *)
  faults : fault_row list;
      (** one row per fault marker, in time order; empty for steady runs *)
  tier_worst : (string * float) list;
      (** per application tier: worst window throughput error *)
}

val of_timelines :
  app:string ->
  ?plan:string ->
  actual:Ditto_obs.Timeseries.t ->
  clone:Ditto_obs.Timeseries.t ->
  unit ->
  t
(** The reconvergence criterion [threshold_pct] is 25%. Raises
    [Invalid_argument] if the two collectors have different window
    grids. *)

val print : t -> unit
(** Terminal table: per-window qps/p95 for both sides with the window
    error (fault windows flagged), then the summary line. *)

val flat : t -> (string * float) list
(** Flat gate keys
    [<app>/<plan>/{worst_window_err_pct,mean_window_err_pct,reconverge_seconds}]
    for the [timeline] section of [bench --json] (schema v7), gated
    through {!Baseline}. [plan] falls back to ["steady"]. Plans with more
    than one fault marker additionally emit
    [<app>/<plan>/fault<i>/reconverge_seconds] per marker. *)
