(** Measurement phase: execute request instruction streams on the simulated
    hardware to obtain (a) PMU-style counters and (b) per-request traces of
    on-CPU time and off-CPU operations.

    This is the simulation analogue of running the real binary under the
    profilers while the DES phase (see {!Service}) replays the traces under
    load to get queueing and latency — the split mirrors how the paper
    separates platform-independent body characteristics from load-dependent
    skeleton behaviour.

    Tiers colocated on the same machine interleave on its cores, so shared
    caches carry their combined footprint (Fig. 7's platform-C contention
    and Fig. 10's interference both come from this). *)

(** Off-CPU/On-CPU segments of one request, replayed by the DES phase. *)
type segment =
  | Cpu of float  (** on-CPU seconds (user + kernel) *)
  | Disk_read of { bytes : int; random : bool }
  | Disk_write of { bytes : int }
  | Sleep of float
  | Downstream of { target : string; req_bytes : int; resp_bytes : int }

type trace = segment list

type tier_result = {
  tier : Spec.tier;
  space : Layout.space;
  traces : trace array;  (** one per measured request *)
  background_trace : trace option;
  counters : Ditto_uarch.Counters.t;
  requests_measured : int;
  cpu_mean : float;  (** mean on-CPU seconds per request *)
  stacks : (string list * float) list;
      (** with {!config.stacks}: on-CPU seconds per [[tier; phase; frame]]
          stack, sorted by stack, where the phase is [recv], [handler],
          [send] or [background] and the frame a block label, a
          [syscall:<name>] or [drain]. The weights are the cycle deltas
          between units of work, so they sum to this tier's [Cpu] seconds
          over [traces] and [background_trace]. [[]] without the switch. *)
}

val trace_cpu_seconds : trace -> float

(** Each tier runs 40 unrecorded warm-up requests, then the measured ones
    in bursts of 4 per tier, the tiers taking turns. *)
type config = {
  idle_per_request : float;
      (** mean idle seconds between requests: drives timer/housekeeping
          pollution of i-cache and predictor (low-load frontend effects) *)
  stressor : (Ditto_util.Rng.t -> int -> Spec.op list) option;
      (** colocated interference stream *)
  stressor_placement : [ `Same_core | `Other_core ];
      (** [`Same_core] shares private caches (hyperthread sibling);
          [`Other_core] shares only the LLC and memory bandwidth *)
  smt_pressure : float;
      (** issue-width factor under SMT interference (1.0 = none) *)
  stacks : bool;
      (** keep each tier's stack table ({!tier_result.stacks}); off, the
          per-block check is one test that allocates nothing *)
}

val default_config : config

val run :
  ?config:config ->
  machine:Machine.t ->
  seed:int ->
  requests:int ->
  (Spec.tier * Layout.space) list ->
  tier_result list
(** Measure every tier hosted on [machine]. Counters and traces are
    attributed per tier even when tiers share cores. *)
