(** Aggregate profile of one tier: everything the generator needs, and
    nothing that reveals the original implementation — only statistical
    distributions (§4.1 "Abstraction"). *)

type t = {
  tier_name : string;
  skeleton : Skeleton.t;
  instmix : Instmix.t;
  working_set : Working_set.t;
  branches : Branches.t;
  deps : Deps.t;
  syscalls : Syscalls.t;
  heap_bytes : int;  (** observed data footprint bound *)
  shared_bytes : int;
  file_bytes : int;
  background : t option;
      (** profile of the timer-triggered background thread body, if any *)
}

val profile : ?requests:int -> ?seed:int -> Ditto_app.Spec.tier -> t
(** Drive all profilers over the tier's request streams in one pass,
    after 60 unrecorded requests that bring caches and stream cursors to
    steady state. *)

val pp : Format.formatter -> t -> unit
(** Human-readable dump (the shareable artefact). *)

type app = {
  app_name : string;
  dag : Ditto_trace.Dag.t option;  (** [None] for single-tier services *)
  tiers : t list;
  entry : string;
  page_cache_hint : int option;
}

val profile_app :
  ?requests:int ->
  ?seed:int ->
  ?dag:Ditto_trace.Dag.t ->
  Ditto_app.Spec.t ->
  app
(** Profile every tier; attach the RPC dependency DAG for microservices
    (collect one with {!Ditto_trace.Collector} from a measured run). *)
