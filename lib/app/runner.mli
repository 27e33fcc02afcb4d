(** End-to-end run orchestration: build the machine, measure instruction
    streams, serve load, and assemble per-tier {!Metrics}.

    A run hosts every tier on one machine of [platform], its page cache
    sized by the app's [page_cache_hint] (autoscaled replicas aside, see
    {!Service.run}). It is fully deterministic from
    [seed] and creates fresh hardware state, so original-vs-synthetic
    comparisons see identical environments.
    The same runner executes original model applications and generated
    clones — the validation harness of §6. *)

type config = {
  platform : Ditto_uarch.Platform.t;
  requests : int;  (** measurement-phase requests per tier *)
  seed : int;
  stressor : (Ditto_util.Rng.t -> int -> Spec.op list) option;
  stressor_placement : [ `Same_core | `Other_core ];
  smt_pressure : float;
  net_interference_gbps : float;
  cores : int option;  (** override machine core count (Fig. 11) *)
  fault_plan : Ditto_fault.Plan.t option;
      (** arm this fault plan against the serving phase (chaos layer) *)
  timeline : bool;
      (** record windowed telemetry ({!Service.result.timeline}) *)
  reqtrace : bool;
      (** sample request span trees ({!Service.result.reqtrace}) *)
  stacks : bool;
      (** attribute each tier's on-CPU time to its stacks
          ({!Measure.tier_result.stacks}); forwarded to {!Measure} by
          {!measure_config}, so wide-graph shards keep their own tables *)
}

val config :
  ?requests:int ->
  ?seed:int ->
  ?stressor:(Ditto_util.Rng.t -> int -> Spec.op list) ->
  ?stressor_placement:[ `Same_core | `Other_core ] ->
  ?smt_pressure:float ->
  ?net_interference_gbps:float ->
  ?cores:int ->
  ?fault_plan:Ditto_fault.Plan.t ->
  ?timeline:bool ->
  ?reqtrace:bool ->
  ?stacks:bool ->
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
    [avg_workers] workers: the housekeeping idle gap at that load plus the
    config's stressor settings and [stacks] switch. {!run} builds its
    measurement from this, and so does the tuner's single-tier calibration
    path, which measures through {!measure_alone}. *)

val measure_alone :
  config ->
  Measure.config ->
  page_cache_hint:int option ->
  seed:int ->
  (Spec.tier * Layout.space) list ->
  Measure.tier_result list
(** Measure [hosted] on a scratch machine of its own (a fresh engine, the
    config's platform and core count, a page cache of [page_cache_hint]
    bytes or the platform default), released afterwards. {!run}'s
    wide-graph shards and the tuner's isolated path both measure this
    way, so an isolated tier sees exactly what a one-tier run's
    measurement sees. *)

val measure_memo_stats : unit -> Ditto_uarch.Memo.stats
(** Always [{ hits = 0 }]: the runner caches no measurement, and every
    {!run} re-measures. Exists only for the benchmark in [perfbench/],
    which reports the count. *)
