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

val measure_memo_stats : unit -> Ditto_uarch.Memo.stats
(** Hit/miss statistics of this domain's measurement-phase memo. The
    measurement phase is a deterministic function of (spec identity,
    hosted tiers, platform, core count, page-cache size, measure scalars,
    seed, requests) and is reused across runs with identical keys; memo
    use is disabled under stressors or an active profiler. *)
