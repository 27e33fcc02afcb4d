(** Application specifications — the runnable form of a service.

    Both "original" model applications ({!Ditto_apps}) and Ditto-generated
    synthetic clones ({!Ditto_gen}) are values of this type; the runner,
    profilers and validators treat them identically, so the cloning
    pipeline never inspects a spec's internals, only its dynamic behaviour. *)

(** One step of a request handler's work. *)
type op =
  | Compute of Ditto_isa.Block.t * int
      (** execute a user-space instruction block for N iterations *)
  | Syscall of Ditto_os.Syscall.kind
      (** kernel work only (gettime, futex, mmap, nanosleep...) *)
  | File_read of { offset : int; bytes : int; random : bool }
      (** pread: kernel work + page cache + disk on miss *)
  | File_write of { bytes : int }
  | Call of { target : string; req_bytes : int; resp_bytes : int }
      (** downstream RPC to another tier *)

(** Server-side network model (§4.3.1). *)
type server_model = Blocking | Nonblocking | Io_multiplexing

(** Client-side model for downstream calls: synchronous calls block the
    worker; asynchronous ones overlap all downstream calls of a request. *)
type client_model = Sync_client | Async_client

type thread_model = {
  workers : int;  (** worker threads (long-lived) at the profiled config *)
  dynamic_threads : bool;
      (** thread-per-connection services (e.g. MongoDB) scale threads with
          concurrent connections *)
  background : (string * float) list;
      (** timer-triggered background threads: (name, period seconds) *)
}

(** Utilization-triggered graceful degradation: past the queue threshold a
    tier serves a cheaper response (scaled CPU, dropped think-time sleeps,
    truncated reply) instead of shedding outright. *)
type degrade = {
  degrade_queue : int;  (** arm past this per-replica backlog *)
  degrade_cpu_scale : float;  (** scale on-CPU segments, in (0,1] *)
  degrade_skip_sleeps : bool;  (** drop [Sleep] trace segments *)
  degrade_response_scale : float;  (** scale the response bytes, in (0,1] *)
}

val degraded :
  ?queue:int ->
  ?cpu_scale:float ->
  ?skip_sleeps:bool ->
  ?response_scale:float ->
  unit ->
  degrade

(** RPC-resilience knobs of a tier's skeleton (the chaos layer, DESIGN.md
    §9). The defaults ({!no_resilience}) disable every mechanism, keeping
    the fault-free execution path — and therefore bit-identity across pool
    sizes — exactly as before. *)
type resilience = {
  call_timeout : float option;  (** per-downstream-call deadline, seconds *)
  max_retries : int;  (** retry budget per downstream call *)
  retry_backoff : float;
      (** base backoff, seconds; attempt n sleeps [backoff * 2^n] plus
          deterministic jitter drawn from the tier's seeded RNG *)
  breaker : Ditto_fault.Breaker.config option;
      (** per-downstream circuit breaker; open = fail fast *)
  queue_bound : int option;
      (** shed (answer with an error) when the accept queue + in-flight
          requests exceed this (scaled by the live replica count when the
          tier autoscales) *)
  degrade : degrade option;  (** serve degraded before shedding; default off *)
}

val no_resilience : resilience

val resilient :
  ?call_timeout:float ->
  ?max_retries:int ->
  ?retry_backoff:float ->
  ?breaker:Ditto_fault.Breaker.config ->
  ?queue_bound:int ->
  ?degrade:degrade ->
  unit ->
  resilience
(** All mechanisms on, with sensible defaults (10 ms timeout, 2 retries,
    2 ms base backoff, default breaker, queue bound 512; degradation stays
    off unless given). *)

(** Horizontal-autoscaling policy: a per-tier queue-depth PI controller
    evaluated on the DES clock (DESIGN.md section 14). Deterministic: pure
    arithmetic on backlog reads, no RNG draws, so two runs of the same
    (seed, policy) pair scale at identical simulated times. *)
type autoscale = {
  as_min_replicas : int;
  as_max_replicas : int;
  as_target_queue : float;  (** per-replica backlog setpoint *)
  as_kp : float;  (** proportional gain on normalised error *)
  as_ki : float;  (** integral gain; integral is clamped (anti-windup) *)
  as_interval : float;  (** controller period, simulated seconds *)
  as_cooldown : float;  (** min gap between scale events *)
  as_deadband : float;  (** hysteresis: no action within this error band *)
}

val autoscale :
  ?min_replicas:int ->
  ?max_replicas:int ->
  ?target_queue:float ->
  ?kp:float ->
  ?ki:float ->
  ?interval:float ->
  ?cooldown:float ->
  ?deadband:float ->
  unit ->
  autoscale

type tier = {
  tier_name : string;
  server_model : server_model;
  client_model : client_model;
  thread_model : thread_model;
  handler : Ditto_util.Rng.t -> int -> op list;
      (** the request-handling body: given a request id, the work list *)
  background_handler : (Ditto_util.Rng.t -> op list) option;
  request_bytes : int;  (** typical inbound request size *)
  response_bytes : int;
  heap_bytes : int;
  shared_bytes : int;
  file_bytes : int;  (** on-disk dataset size; 0 = no disk component *)
  resilience : resilience;
  autoscale : autoscale option;  (** horizontal scaling policy; default off *)
}

val tier :
  ?server_model:server_model ->
  ?client_model:client_model ->
  ?workers:int ->
  ?dynamic_threads:bool ->
  ?background:(string * float) list ->
  ?background_handler:(Ditto_util.Rng.t -> op list) ->
  ?request_bytes:int ->
  ?response_bytes:int ->
  ?heap_bytes:int ->
  ?shared_bytes:int ->
  ?file_bytes:int ->
  ?resilience:resilience ->
  ?autoscale:autoscale ->
  name:string ->
  handler:(Ditto_util.Rng.t -> int -> op list) ->
  unit ->
  tier

type t = {
  app_name : string;
  tiers : tier list;
  entry : string;
  page_cache_hint : int option;
      (** deployment hint: OS page-cache bytes needed to reproduce the
          original's cache-vs-disk balance (e.g. MongoDB's dataset exceeds
          it, making the service disk-bound) *)
}

val make : name:string -> ?entry:string -> ?page_cache_hint:int -> tier list -> t
(** [entry] defaults to the first tier. *)

val with_resilience : resilience -> t -> t
(** Deployment-level overlay: the same resilience knobs on every tier (used
    by [Pipeline.validate_under] so original and clone face failures with
    identical armour). *)

val with_autoscale : autoscale -> t -> t
(** Deployment-level overlay: the same scaling policy on every tier, so
    original and clone scale out under identical rules. *)

val find_tier : t -> string -> tier
val is_microservice : t -> bool

val server_model_name : server_model -> string
val client_model_name : client_model -> string
