(** DES phase: serve load against measured request traces.

    Tiers run as processes with their profiled thread/network models
    (Fig. 3's skeleton): I/O-multiplexing workers on epoll sets, blocking
    thread-per-connection servers, or non-blocking pollers that sweep
    their server's one connection set, newest connection first. Every
    worker runs one loop that waits out its tier's crashes. Request work is
    replayed from {!Measure} traces — on-CPU segments contend on the
    scheduler, disk segments queue on the device, downstream RPC segments
    traverse sockets to other tiers. Latency distributions, achieved
    throughput and I/O bandwidth fall out of the simulation.

    The chaos layer rides on top: an optional {!Ditto_fault.Plan} degrades
    the run (tier crashes, CPU brown-outs, lossy links, partitions) while
    each tier's {!Spec.resilience} knobs — downstream timeouts, retries,
    circuit breakers, load shedding — decide how the skeleton fights back.
    All defaults are off, keeping the fault-free path bit-identical across
    pool sizes. *)

type load = {
  qps : float;  (** offered load *)
  connections : int;
  open_loop : bool;
      (** open loop (mutated/wrk2-style: arrivals never wait) vs closed
          loop (YCSB-style: one outstanding request per connection) *)
  duration : float;  (** simulated seconds of load *)
  client_timeout : float option;
      (** end-to-end request deadline at the load generator; a timed-out
          connection is torn down and replaced *)
  client_retries : int;  (** client-side retry budget after timeout/error *)
  profile : Rate.t option;
      (** rate profile shaping the offered load over time; [None] (or a
          {!Rate.is_constant} profile) leaves the arrival process — and the
          run's event stream — bit-identical to the pre-profile code *)
}

val load :
  ?connections:int ->
  ?open_loop:bool ->
  ?duration:float ->
  ?client_timeout:float ->
  ?client_retries:int ->
  ?profile:Rate.t ->
  qps:float ->
  unit ->
  load

type tier_obs = {
  obs_name : string;
  obs_latency : Ditto_util.Stats.summary;  (** server-side per-request latency *)
  obs_requests : int;
  obs_net_mbps : float;
      (** NIC bandwidth during the run, summed over the machines serving
          the tier: the run's machine, whose traffic all tiers on it share,
          and the tier's own replica machines; [obs_disk_mbps] likewise *)
  obs_disk_mbps : float;
  obs_timeouts : int;  (** downstream calls that hit [call_timeout] *)
  obs_retries : int;  (** downstream retry attempts *)
  obs_shed : int;  (** requests answered with an error by load shedding *)
  obs_degraded : int;  (** requests served in degraded mode (cheaper response) *)
  obs_failures : int;  (** handled requests that ended in an error reply *)
  obs_replicas : int;  (** replica count at teardown (1 without autoscaling) *)
  obs_breaker_transitions : int;  (** circuit-breaker state changes, all downstreams *)
  obs_link_drops : int;  (** messages the fault plan dropped leaving this tier *)
}

(** One autoscaler actuation, on the DES clock. Available on every run —
    no telemetry required — so tests and scorecards can compare replica
    trajectories directly. *)
type scale_event = { se_at : float; se_tier : string; se_from : int; se_to : int }

type result = {
  latency : Ditto_util.Stats.summary;  (** end-to-end, at the client (successes) *)
  latency_raw : float array;
      (** the end-to-end latency of every completed request (the samples
          of [latency]), in completion order *)
  achieved_qps : float;
  completed : int;
  errors : int;  (** client requests that failed after exhausting retries *)
  client_timeouts : int;  (** client-side deadline expiries (pre-retry) *)
  client_retries : int;  (** client retry attempts used *)
  elapsed : float;
  tiers : tier_obs list;
  scale_events : scale_event list;
      (** chronological autoscaler actuations; empty when no tier has an
          {!Spec.autoscale} policy *)
  timeline : Ditto_obs.Timeseries.t option;
      (** windowed per-tier telemetry on the DES clock (plus a
          {!Ditto_obs.Timeseries.client_tier} end-to-end series and fault
          markers from the plan); [Some] only when {!run}'s [timeline]
          was set. Recording telemetry does not perturb any other field.
          Each tier and the client keep one tally: the call that counts
          a completion or an event for the fields above also records it
          in its window, unless it falls in the drain after the load. *)
  reqtrace : Ditto_obs.Reqtrace.t option;
      (** span trees of deterministically sampled requests, finalized
          ({!Ditto_obs.Reqtrace.traces} is ready); [Some] only when
          {!run}'s [reqtrace] was set. Request tracing does not perturb
          any other field. *)
}

val run :
  app:Spec.t ->
  machine:Machine.t ->
  results:(string -> Measure.tier_result) ->
  seed:int ->
  ?net_interference_gbps:float ->
  ?fault_plan:Ditto_fault.Plan.t ->
  ?timeline:bool ->
  ?reqtrace:bool ->
  load ->
  result
(** Serve [load] against the app deployed on [machine], on its engine.
    Each tier's primary server runs on [machine], so colocated tiers talk
    over its loopback and share its NIC and disk; a tier with an
    {!Spec.autoscale} policy adds replica servers, each on a fresh machine
    of the same platform and core count, released before [run] returns.
    [machine] itself stays the caller's to release.
    [net_interference_gbps] runs an iperf-style competing stream through
    [machine]'s NIC (Fig. 10's network interference). [fault_plan] arms a
    {!Ditto_fault.Injector} against this run's engine clock; the injector's RNG is derived from
    [seed], so a (seed, plan) pair degrades the run deterministically.
    [timeline] / [reqtrace] (default false) give this run its own
    {!Ditto_obs.Timeseries} / {!Ditto_obs.Reqtrace} collector.

    The load generator runs one client process per connection. An
    open-loop arrival is an event, not a process: a request that finds
    its connection busy waits as a queue entry (its submission time and
    trace root), and the connection's process serves those entries in
    submission order. Latency is timed from submission, so the time a
    request waits for its connection counts (coordinated omission stays
    corrected, as in wrk2/mutated). *)
