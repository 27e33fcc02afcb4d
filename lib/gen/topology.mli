(** Seeded synthesis of production-shaped microservice graphs.

    DeathStarBench tops out near thirty tiers; production graphs (Alibaba,
    Meta traces) run to hundreds or thousands, with heavy-tailed tier
    reuse — a few storage/cache tiers called from everywhere — multiple
    entry request types, and depth well past the benchmarks'. This module
    generates such graphs as ordinary {!Ditto_app.Spec.t} values so the
    clone/validate/tune pipeline exercises that scale unchanged, together
    with the ground-truth {!Ditto_trace.Dag.t} the recovered topology is
    checked against.

    Structure: tiers are arranged in layers (layer 0 is the single
    gateway); every edge points to a strictly deeper layer, so graphs are
    acyclic by construction. Out-degrees are Pareto-distributed
    (heavy-tailed fan-out), and call targets mix nearest-layer chaining
    with a Zipf-weighted draw over all deeper tiers ranked deepest-first,
    concentrating reuse on the deep storage tiers. The gateway exposes
    several request types, each owning a disjoint slice of the layer-1
    tiers, with Zipf-weighted type popularity. Per-caller downstream call
    probabilities are scaled to a budget so the expected per-request RPC
    tree stays bounded as the graph grows. All sampling flows from a
    single SplitMix64 seed: the same [params] always yield the same graph,
    bit for bit. *)

type params = {
  tiers : int;  (** total tier count including the gateway; >= 2 *)
  seed : int;
  max_depth : int;
      (** deepest layer; kept <= 8 so the trace collector's depth cap (16)
          is never clipped on any root-to-leaf path *)
  fanout_shape : float;  (** Pareto shape for out-degree; smaller = heavier tail *)
  fanout_scale : float;  (** Pareto scale (minimum out-degree mass) *)
  reuse_s : float;  (** Zipf exponent of deep-tier reuse popularity *)
  request_types : int;  (** gateway API endpoints; capped at layer-1 width *)
  call_budget : float;
      (** target sum of downstream call probabilities per caller; bounds
          the expected per-request RPC tree size independent of [tiers] *)
}

val default : ?seed:int -> tiers:int -> unit -> params
(** Production-flavoured defaults: depth 8, Pareto(1.0, 1.3) fan-out,
    Zipf 1.1 reuse, 6 request types, call budget 1.2. *)

type t = {
  params : params;
  name : string;  (** ["synth-<tiers>"] *)
  spec : Ditto_app.Spec.t;  (** runnable spec; entry tier is ["gateway"] *)
  dag : Ditto_trace.Dag.t;  (** ground-truth topology *)
  layers : int array;  (** layer of tier [i] in spec order; gateway = 0 *)
}

val generate : params -> t
(** Deterministic in [params]. Raises [Invalid_argument] if [tiers < 2] or
    [tiers > Layout.max_tiers]. *)

val spans : t -> Ditto_trace.Span.t list
(** Synthetic distributed-trace spans covering the full graph: gateway
    targets are chunked into request-type-sized groups, and each group
    emits one trace holding one span per DAG
    edge reachable under that group, with canonical parents so every
    span's parent precedes it. [Dag.of_spans (spans t)] recovers a DAG
    {!same_shape}-equal to [t.dag]; round-tripping the spans through
    {!Ditto_trace.Jaeger} preserves this. *)

val same_shape : Ditto_trace.Dag.t -> Ditto_trace.Dag.t -> bool
(** Structural equality: same entry, same service set, same
    (caller, callee, req_bytes, resp_bytes) edge set — ignoring call-rate
    statistics, which depend on how many traces were sampled. *)

val app_name : int -> string
(** [app_name n] is ["synth-<n>"]. *)

val parse_name : string -> int option
(** Inverse of {!app_name}; [None] for anything else. *)
