(** Instruction-mix profiler (§4.4.2) — the Intel SDE analogue.

    Counts dynamic executions per iform, then clusters iforms by
    functionality / operands / port usage with hierarchical clustering so
    each cluster has similar hardware resource requirements; the generator
    samples clusters by weight and draws a representative iform. Also
    profiles the mean dynamic instructions per request and the repeat
    counts of REP-prefixed instructions. *)

type t = {
  insts_per_request : float;
  iform_counts : (int * int) list;  (** iform id -> dynamic count *)
  clusters : (int list * float) list;
      (** iform-id clusters with their aggregate probability *)
  rep_mean_count : float;  (** mean repeat count of REP-prefixed insts *)
  rep_fraction : float;  (** REP insts per dynamic instruction *)
}

val observer : ?live:bool ref -> unit -> Stream.observer * (unit -> t)
(** Returns the observer to register with {!Stream.drive} and a finaliser
    producing the profile. While [!live] is false (profiling warmup),
    events update internal state but are not counted. *)

val cluster_threshold : float
(** Feature-space distance below which iforms merge (exposed for tests). *)

val iform_sampler : t -> (Ditto_util.Rng.t -> Ditto_isa.Iform.t)
(** [iform_sampler t] builds, once, a sampler of the profiled mix: each
    draw picks a cluster by weight, then a member weighted by its dynamic
    count (two uniforms). Without clusters it yields [ADD_GPR64_GPR64]
    without drawing. *)
