(** Clone-accuracy scorecards: per-tier, per-counter comparison of an
    original service against its synthetic clone, with relative errors, a
    95%-accuracy pass/fail verdict per row (the paper's §6.2 accuracy bar)
    and — when a tuning report is available — per-knob-group attribution of
    the residual error, so a failing row names the knobs that own it. *)

type row = {
  tier : string;
  metric : string;
      (** "ipc" | "insts" (per request) | "branch" (MPKI) | "l1i" | "l1d" |
          "l2" | "llc" (miss rates) | "throughput" (qps) | "lat_avg" |
          "lat_p95" | "lat_p99" (seconds) *)
  actual : float;
  synthetic : float;
  err_pct : float;  (** 100 * |synthetic - actual| / actual *)
  pass : bool;  (** err_pct <= target_pct *)
  knob_group : string option;
      (** owning tuner knob group ("frontend" | "data" | "work") for
          counters the §4.5 loop calibrates; [None] for derived
          service-level rows (throughput, latency) *)
}

(** One row of the failure-fidelity section (chaos runs): rates compare in
    percentage points, latency/throughput in relative percent, resilience
    counters (timeouts, retries, shed, breaker transitions, link drops)
    with a lenient count slack. *)
type failure_row = {
  f_metric : string;
      (** "error_rate" | "lat_p99" | "throughput" | "client_timeouts" |
          "client_retries" | "<tier>/<counter>" *)
  f_actual : float;
  f_synthetic : float;
  f_delta : float;  (** pp, relative %, or absolute count difference *)
  f_pass : bool;
}

type failure_section = { fail_plan : string; failure_rows : failure_row list }

type t = {
  app : string;
  label : string;  (** validation label, e.g. the load point *)
  target_pct : float;
  rows : row list;
  attribution : (string * float) list;
      (** residual tuning error (percent) per "tier/group", from
          {!Ditto_tune.Tuner.report.attribution} *)
  failure : failure_section option;
      (** present for {!of_chaos} scorecards: how faithfully the clone
          degrades under the fault plan *)
}

val of_comparison :
  app:string ->
  ?tuning:Ditto_tune.Tuner.report ->
  Ditto_core.Pipeline.comparison ->
  t
(** Build the scorecard from a {!Ditto_core.Pipeline.validate} result. A
    row passes within 5% ([target_pct], the paper's 95% accuracy bar). *)

val of_chaos :
  app:string ->
  ?tuning:Ditto_tune.Tuner.report ->
  Ditto_core.Pipeline.chaos ->
  t
(** Scorecard for a {!Ditto_core.Pipeline.validate_under} run: the usual
    degraded counter rows plus a {!failure_section} comparing error rate
    (pp), degraded p99 / throughput (relative %) and per-tier resilience
    counters between original and clone. *)

val passed : t -> bool
(** True when every counter row (those with a [knob_group]) passes;
    service-level rows are informational. *)

val to_json : t -> Ditto_util.Jsonx.t
val print : t -> unit
(** Terminal rendering via {!Ditto_util.Table}. *)
