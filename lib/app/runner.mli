(** End-to-end run orchestration: build machines, measure instruction
    streams, serve load, and assemble per-tier {!Metrics}.

    A run is fully deterministic from [seed] and creates fresh hardware
    state, so original-vs-synthetic comparisons see identical environments.
    The same runner executes original model applications and generated
    clones — the validation harness of §6. *)

type config = {
  platform : Ditto_uarch.Platform.t;
  cluster : bool;  (** one machine per tier instead of a single node *)
  requests : int;  (** measurement-phase requests per tier *)
  seed : int;
  syscall_scale : float;
  stressor : (Ditto_util.Rng.t -> int -> Spec.op list) option;
  stressor_placement : [ `Same_core | `Other_core ];
  smt_pressure : float;
  net_interference_gbps : float;
  cores : int option;  (** override machine core count (Fig. 11) *)
  page_cache_bytes : int option;
  fault_plan : Ditto_fault.Plan.t option;
      (** arm this fault plan against the serving phase (chaos layer) *)
  timeline : bool;
      (** record windowed telemetry ({!Service.result.timeline}) *)
  reqtrace : bool;
      (** sample request span trees ({!Service.result.reqtrace}) *)
}

val config :
  ?cluster:bool ->
  ?requests:int ->
  ?seed:int ->
  ?syscall_scale:float ->
  ?stressor:(Ditto_util.Rng.t -> int -> Spec.op list) ->
  ?stressor_placement:[ `Same_core | `Other_core ] ->
  ?smt_pressure:float ->
  ?net_interference_gbps:float ->
  ?cores:int ->
  ?page_cache_bytes:int ->
  ?fault_plan:Ditto_fault.Plan.t ->
  ?timeline:bool ->
  ?reqtrace:bool ->
  Ditto_uarch.Platform.t ->
  config

type output = {
  app : Spec.t;
  per_tier : (string * Metrics.t) list;
  end_to_end : Ditto_util.Stats.summary;  (** client-observed latency *)
  service : Service.result;
  measured : (string * Measure.tier_result) list;
}

val run : config -> load:Service.load -> Spec.t -> output

val tier_metrics : output -> string -> Metrics.t
(** Raises [Invalid_argument] for unknown tier names, naming the tier and
    listing the known ones. *)

val estimate_idle_per_request : qps:float -> workers:int -> float
(** The mean per-worker idle gap used to scale kernel housekeeping
    pollution (exposed for tests). *)

val measure_config : config -> qps:float -> avg_workers:int -> Measure.config
(** The measurement-phase config a run at [qps] uses, for tiers averaging
    [avg_workers] workers. {!run} builds its measurement from this, and the
    tuner's single-tier calibration path builds from it too, so both
    measure a tier the same way. *)

val measure_memo_stats : unit -> Ditto_uarch.Memo.stats
(** Always [{ hits = 0 }]: the runner caches no measurement, and every
    {!run} re-measures. Exists only for the benchmark in [perfbench/],
    which reports the count. *)
