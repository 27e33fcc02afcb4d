(** The end-to-end Ditto pipeline (Fig. 3): profile an original service,
    extract the microservice topology, generate a synthetic clone, and
    fine-tune it — then validate original vs clone under arbitrary loads,
    platforms and interference, without reprofiling. *)

type clone_result = {
  original : Ditto_app.Spec.t;
  reference : Ditto_app.Runner.output;
      (** original's run at the profiling load and platform, under
          [Runner.config ~requests ~seed platform] with {!clone}'s
          arguments *)
  dag : Ditto_trace.Dag.t option;
  profile : Ditto_profile.Tier_profile.app;
  synthetic : Ditto_app.Spec.t;
  tuning : Ditto_tune.Tuner.report option;
}

val clone :
  ?pool:Ditto_util.Pool.t ->
  ?tune:bool ->
  ?requests:int ->
  ?profile_requests:int ->
  ?seed:int ->
  platform:Ditto_uarch.Platform.t ->
  load:Ditto_app.Service.load ->
  Ditto_app.Spec.t ->
  clone_result
(** Profile at [load] (the paper profiles only at medium load) on
    [platform] and produce the clone. [tune] (default true) runs the §4.5
    calibration loop. [pool] (default {!Ditto_util.Pool.default}) carries
    the speculative tuning candidates; results are bit-identical for any
    pool size with the same seed. *)

type comparison = {
  label : string;
  actual : (string * Ditto_app.Metrics.t) list;
  synthetic : (string * Ditto_app.Metrics.t) list;
  actual_end_to_end : Ditto_util.Stats.summary;
  synthetic_end_to_end : Ditto_util.Stats.summary;
  actual_raw : float array;  (** raw end-to-end latency samples *)
  synthetic_raw : float array;
  actual_measured : (string * Ditto_app.Measure.tier_result) list;
      (** per-tier measurement-phase results (request counts, raw counters)
          backing the scorecard's insts/req and MPKI rows *)
  synthetic_measured : (string * Ditto_app.Measure.tier_result) list;
  actual_service : Ditto_app.Service.result;
      (** full service-phase results of both sides; carries the optional
          {!Ditto_obs.Timeseries} / {!Ditto_obs.Reqtrace} collectors when
          the runner config ([config_of]) set [timeline] / [reqtrace] *)
  synthetic_service : Ditto_app.Service.result;
}

val validate :
  ?pool:Ditto_util.Pool.t ->
  ?config_of:(Ditto_uarch.Platform.t -> Ditto_app.Runner.config) ->
  platform:Ditto_uarch.Platform.t ->
  load:Ditto_app.Service.load ->
  label:string ->
  clone_result ->
  comparison
(** Run original and synthetic under identical fresh environments and
    collect both metric sets — on two pool domains when the pool has
    capacity (each run builds its own engine, so the pair is domain-safe
    and the outputs match the sequential schedule exactly). [config_of]
    customises the runner config (interference, core counts, ...). *)

val comparison_of_outputs :
  label:string -> Ditto_app.Runner.output -> Ditto_app.Runner.output -> comparison
(** [comparison_of_outputs ~label actual synthetic] pairs two runs already
    held, the original's first, as {!validate} pairs the two it makes. A
    run is a deterministic function of its config, load and spec, so a
    clone's [reference] can stand for the original's side of a validation
    at the clone's own platform and load, under the runner config
    {!clone} used. *)

val comparison_errors : comparison -> (string * (string * float) list) list
(** Per tier: the radar-axis error percentages. *)

(** {1 Fidelity under failure} *)

type chaos = {
  chaos_label : string;
  plan : Ditto_fault.Plan.t option;  (** the fault schedule armed, if any *)
  surge : Ditto_app.Rate.t option;  (** the rate profile driven, if any *)
  comparison : comparison;  (** degraded per-tier metrics, both sides *)
  actual_service : Ditto_app.Service.result;
  synthetic_service : Ditto_app.Service.result;
}

val scenario_name : ?plan:Ditto_fault.Plan.t -> ?surge:Ditto_app.Rate.t -> unit -> string
(** ["<plan>+<profile>"], either half alone, or ["steady"] — the scenario
    key used in scorecards and flat metric paths. *)

val error_rate : Ditto_app.Service.result -> float
(** Failed fraction of client requests: errors / (completed + errors). *)

val validate_under :
  ?pool:Ditto_util.Pool.t ->
  ?resilience:Ditto_app.Spec.resilience ->
  ?client_timeout:float ->
  ?client_retries:int ->
  ?autoscale:Ditto_app.Spec.autoscale ->
  ?config_of:(Ditto_uarch.Platform.t -> Ditto_app.Runner.config) ->
  platform:Ditto_uarch.Platform.t ->
  load:Ditto_app.Service.load ->
  ?plan:Ditto_fault.Plan.t ->
  ?profile:Ditto_app.Rate.t ->
  label:string ->
  clone_result ->
  chaos
(** {!validate}, but under adversity: [plan] (a fault schedule), [profile]
    (an open-loop surge, overriding the load's own), or both composed —
    with the same resilience armour ([resilience], default
    [Spec.resilient ()]; client deadline [client_timeout], default 30 ms,
    with [client_retries], default 1) and, when given, the same
    [autoscale] policy overlaid on every tier of original and clone alike
    — so the comparison probes whether the clone degrades (and scales)
    like the original, not whether it is configured like it.
    Deterministic for a given seed, plan and profile, for any pool
    size. *)
