(** Fine tuning (§4.5): feedback calibration of generator knobs.

    Measures the synthetic application, compares PMU-style counters against
    the original, and adjusts grouped knobs with a linear feedback heuristic —
    frontend knobs (i-footprint, branch bins) against L1i/branch misses,
    data knobs (working-set scale) against L1d/L2/LLC misses, and the work
    knob (instruction scale) against per-request instruction counts.
    Typically converges within ten iterations to >95% accuracy.

    Tuning is {e speculative}: each iteration evaluates the damped
    adjustment plus [speculation] jittered knob vectors — independent
    measurements dispatched on a {!Ditto_util.Pool} — and keeps the best
    objective. The
    candidate set is derived from the seed alone, so the search trajectory
    (and the returned clone) is bit-identical whatever the pool size. *)

type iteration = {
  iter : int;
  worst_error : float;  (** max relative error across tuned counters *)
  errors : (string * float) list;  (** per "tier/metric" *)
  objective : float;  (** ranking objective of the kept candidate *)
  winner : int;
      (** index of the kept candidate: 0 = damped adjustment, >= 1 = the
          [winner]-th speculative perturbation *)
  params : (string * Ditto_gen.Params.t) list;  (** kept knob vector, per tier *)
}

type report = {
  iterations : iteration list;
  converged : bool;
  final_params : (string * Ditto_gen.Params.t) list;
  speculation : int;  (** extra candidate vectors evaluated per iteration *)
  attribution : (string * float) list;
      (** residual error per "tier/group" knob group (worst member metric),
          e.g. [("redis/frontend", 0.031)] — lets scorecards name the knobs
          that own each row's remaining error *)
}

val tune :
  ?max_iterations:int ->
  ?seed:int ->
  ?pool:Ditto_util.Pool.t ->
  config:Ditto_app.Runner.config ->
  load:Ditto_app.Service.load ->
  reference:Ditto_app.Runner.output ->
  profile:Ditto_profile.Tier_profile.app ->
  unit ->
  Ditto_app.Spec.t * report
(** [reference] is the original's run at the profiling load. Returns the
    calibrated synthetic spec and the tuning report. Each candidate is
    generated whole and measured by {!Ditto_app.Runner.measure} under
    [config]: only the measurement phase runs, since calibration reads
    counters, not tails, and [load] supplies the qps.

    Each iteration evaluates K = 2 perturbed knob vectors alongside the
    damped adjustment (the report's [speculation]), and tuning stops once
    the worst counter error is within 5%. [pool] (default
    {!Ditto_util.Pool.default}) supplies the domains the K+1 candidate
    measurements execute on. *)

val counter_errors :
  original:Ditto_uarch.Counters.t ->
  synthetic:Ditto_uarch.Counters.t ->
  orig_requests:int ->
  synth_requests:int ->
  (string * float) list
(** Relative errors for ipc / insts-per-request / branch / l1i / l1d / l2 /
    llc (exposed for tests). *)

val attribution_of_errors : (string * float) list -> (string * float) list
(** Folds "tier/metric" errors into per "tier/group" residuals, keeping the
    worst error among each knob group's metrics (exposed for tests). *)

(** {1 Telemetry}

    Stable JSON projections of the tuning trajectory, used by
    [bench --json] and embedded as span attributes by the observability
    layer. *)

val params_to_json : Ditto_gen.Params.t -> Ditto_util.Jsonx.t
val iteration_to_json : iteration -> Ditto_util.Jsonx.t
val report_to_json : report -> Ditto_util.Jsonx.t
