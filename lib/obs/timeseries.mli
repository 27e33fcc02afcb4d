(** Windowed time-series telemetry sampled on the simulated (DES) clock.

    A per-run setting, off by default: {!Ditto_app.Service.run} allocates
    one collector when the run's [Runner.config.timeline] is set and
    threads it through its request/fault hooks; without one every hook
    is a single option match, so pool-size bit-identity of the
    simulation is untouched. A run's collector is only ever touched from
    the single domain executing that run's engine, so no locking is
    needed, concurrent runs with different settings do not see each
    other, and timelines are bit-identical across [DITTO_DOMAINS] pool
    sizes.

    The run is divided into [windows] equal windows of simulated time
    starting at [start]; every sample carries its simulated timestamp
    [at] and is binned by window. Samples outside
    [[start, start + duration)] (e.g. requests completing in the
    post-load drain phase) are dropped so the last window is not
    inflated. Per tier and window the collector keeps: completed
    requests, a log-bucketed latency sketch ({!Histogram}, 1% quantile
    error), fault counters (timeouts, retries, shed, failures), on-CPU
    seconds, and a max-sampled queue depth. A synthetic {!client_tier}
    series holds end-to-end client observations. *)

val client_tier : string
(** Name of the synthetic end-to-end series: ["client"]. *)

type t

type counter = Timeouts | Retries | Shed | Failures | Degraded

type row = {
  r_completed : int;
  r_p50 : float;
  r_p95 : float;
  r_p99 : float;  (** latency quantiles in seconds; [0.] when no samples *)
  r_timeouts : int;
  r_retries : int;
  r_shed : int;
  r_failures : int;
  r_degraded : int;  (** requests served in degraded mode *)
  r_cpu_seconds : float;
  r_queue_depth : int;  (** max depth sampled in the window; [0] if never sampled *)
  r_replicas : int;
      (** live replica count: max recorded in the window, carried forward
          from earlier windows when the autoscaler was quiet; [0] when the
          tier never recorded one (no autoscaling) *)
}

val create :
  ?windows:int -> ?alpha:float -> start:float -> duration:float -> tiers:string list -> unit -> t
(** [windows] defaults to 24; [alpha] is the histogram error bound
    (default 0.01). [tiers] are the application tier names; a
    {!client_tier} series is appended automatically. *)

(** {1 Recording}

    A recorder resolves a tier's {!series} once, then records by it, not
    by tier name. A timestamp outside the run interval records nothing. *)

type series  (** one tier's windows, or the {!client_tier}'s *)

val series : t -> tier:string -> series
(** Raises [Invalid_argument] on an unknown tier. *)

val latency : series -> at:float -> seconds:float -> unit
(** One completed request: bumps the window's completed count and feeds
    its latency sketch. *)

val count : series -> at:float -> counter -> unit
val cpu : series -> at:float -> seconds:float -> unit

val queue : series -> at:float -> depth:int -> unit
(** Keeps the max depth seen in the window. *)

val replicas : series -> at:float -> count:int -> unit
(** The tier's live replica count after a scale event. Keeps the max
    per window; reads carry the last value forward. *)

val mark : t -> at:float -> label:string -> unit
(** Timeline event marker (fault injections, profile spikes, scale
    events — the latter prefixed ["scale:"] so transient-fidelity scoring
    can tell them from faults). Kept even when [at] falls outside the
    windowed interval. *)

val set_rate_basis : t -> tier:string -> insts_per_req:float -> unit
(** Post-run: measured instructions per request for the tier, letting
    exporters derive a rate-form uarch series
    (insts/s = insts_per_req * throughput) from the windowed counts. *)

(** {1 Reading} *)

val start_time : t -> float
val window_seconds : t -> float
val windows : t -> int
val tiers : t -> string list
(** Application tiers in creation order, then {!client_tier}. *)

val row : t -> tier:string -> int -> row
(** Raises [Invalid_argument] on an unknown tier or window out of range. *)

val marks : t -> (float * string) list
(** Markers in recording order (absolute simulated time). *)

(** {1 Exporters} *)

val openmetrics : ((string * string) list * t) list -> string
(** OpenMetrics / Prometheus text exposition for one or more labelled
    collectors (e.g. [[(["side", "actual"], a); (["side", "clone"], c)]]);
    samples of the same metric family are grouped as the format requires,
    each stamped with its window-end simulated time, and the document
    ends with [# EOF]. *)

val to_openmetrics : ?labels:(string * string) list -> t -> string
(** [openmetrics [(labels, t)]]. *)

val chrome_events : ?pid:int -> process_name:string -> t -> Ditto_util.Jsonx.t list
(** Chrome trace-event objects: one process-name/thread-name metadata
    block ([pid] defaults to 100; tid = 1 + tier index so each tier gets
    its own track) plus ["ph": "C"] counter events per tier and window
    (throughput qps, p95 ms, queue depth, faults, and Minsts/s when a
    rate basis is set), timestamped in simulated microseconds. Append
    them to a trace's [traceEvents] to render alongside {!Obs} spans. *)
