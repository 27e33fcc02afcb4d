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
          ({!Measure.tier_result.stacks}); forwarded to every
          {!Measure.run} of the measurement phase, so wide-graph shards
          keep their own tables *)
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
(** The measurement phase ({!measure}, on the run's own machine), then the
    service phase on the same machine, serving [load]. *)

val measure : config -> qps:float -> Spec.t -> (string * Measure.tier_result) list
(** A run's measurement phase alone, on a scratch machine released
    afterwards: every tier measured in spec order, with the kernel
    housekeeping gap of a run at [qps]. It equals [(run cfg ~load
    app).measured] for any [load] at [qps], and opens no span. Above 32
    tiers the tiers are measured in shards across the default pool's
    domains, each on a scratch machine of its own. *)

val tier_metrics : output -> string -> Metrics.t
(** Raises [Invalid_argument] for unknown tier names, naming the tier and
    listing the known ones. *)

val estimate_idle_per_request : qps:float -> workers:int -> float
(** The mean per-worker idle gap used to scale kernel housekeeping
    pollution (exposed for tests). *)

val measure_memo_stats : unit -> Ditto_uarch.Memo.stats
(** Always [{ hits = 0 }]: the runner caches no measurement, and every
    {!run} re-measures. Exists only for the benchmark in [perfbench/],
    which reports the count. *)
