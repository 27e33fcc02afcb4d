type op =
  | Compute of Ditto_isa.Block.t * int
  | Syscall of Ditto_os.Syscall.kind
  | File_read of { offset : int; bytes : int; random : bool }
  | File_write of { bytes : int }
  | Call of { target : string; req_bytes : int; resp_bytes : int }

type server_model = Blocking | Nonblocking | Io_multiplexing
type client_model = Sync_client | Async_client

type thread_model = {
  workers : int;
  dynamic_threads : bool;
  background : (string * float) list;
}

type degrade = {
  degrade_queue : int;
  degrade_cpu_scale : float;
  degrade_skip_sleeps : bool;
  degrade_response_scale : float;
}

let degraded ?(queue = 256) ?(cpu_scale = 0.5) ?(skip_sleeps = true) ?(response_scale = 0.25) () =
  if queue <= 0 then invalid_arg "Spec.degraded: non-positive queue threshold";
  if cpu_scale <= 0.0 || cpu_scale > 1.0 then invalid_arg "Spec.degraded: cpu_scale outside (0,1]";
  if response_scale <= 0.0 || response_scale > 1.0 then
    invalid_arg "Spec.degraded: response_scale outside (0,1]";
  {
    degrade_queue = queue;
    degrade_cpu_scale = cpu_scale;
    degrade_skip_sleeps = skip_sleeps;
    degrade_response_scale = response_scale;
  }

type resilience = {
  call_timeout : float option;
  max_retries : int;
  retry_backoff : float;
  breaker : Ditto_fault.Breaker.config option;
  queue_bound : int option;
  degrade : degrade option;
}

let no_resilience =
  {
    call_timeout = None;
    max_retries = 0;
    retry_backoff = 0.0;
    breaker = None;
    queue_bound = None;
    degrade = None;
  }

let resilient ?(call_timeout = 0.01) ?(max_retries = 2) ?(retry_backoff = 2e-3)
    ?(breaker = Ditto_fault.Breaker.default_config) ?(queue_bound = 512) ?degrade () =
  if call_timeout <= 0.0 then invalid_arg "Spec.resilient: non-positive call_timeout";
  if max_retries < 0 then invalid_arg "Spec.resilient: negative max_retries";
  if retry_backoff < 0.0 then invalid_arg "Spec.resilient: negative retry_backoff";
  if queue_bound <= 0 then invalid_arg "Spec.resilient: non-positive queue_bound";
  {
    call_timeout = Some call_timeout;
    max_retries;
    retry_backoff;
    breaker = Some breaker;
    queue_bound = Some queue_bound;
    degrade;
  }

(* Horizontal autoscaling policy: a queue-depth PI controller evaluated on
   the DES clock. Replica count is clamped to [min, max]; the controller
   only acts when the normalised error leaves the hysteresis deadband and
   the cooldown since the last scale event has elapsed, so small load
   wiggles do not thrash replicas. *)
type autoscale = {
  as_min_replicas : int;
  as_max_replicas : int;
  as_target_queue : float;
  as_kp : float;
  as_ki : float;
  as_interval : float;
  as_cooldown : float;
  as_deadband : float;
}

let autoscale ?(min_replicas = 1) ?(max_replicas = 4) ?(target_queue = 32.0) ?(kp = 1.0)
    ?(ki = 0.25) ?(interval = 0.05) ?(cooldown = 0.1) ?(deadband = 0.25) () =
  if min_replicas < 1 then invalid_arg "Spec.autoscale: min_replicas < 1";
  if max_replicas < min_replicas then invalid_arg "Spec.autoscale: max_replicas < min_replicas";
  if target_queue <= 0.0 then invalid_arg "Spec.autoscale: non-positive target_queue";
  if interval <= 0.0 then invalid_arg "Spec.autoscale: non-positive interval";
  if cooldown < 0.0 then invalid_arg "Spec.autoscale: negative cooldown";
  if deadband < 0.0 then invalid_arg "Spec.autoscale: negative deadband";
  {
    as_min_replicas = min_replicas;
    as_max_replicas = max_replicas;
    as_target_queue = target_queue;
    as_kp = kp;
    as_ki = ki;
    as_interval = interval;
    as_cooldown = cooldown;
    as_deadband = deadband;
  }

type tier = {
  tier_name : string;
  server_model : server_model;
  client_model : client_model;
  thread_model : thread_model;
  handler : Ditto_util.Rng.t -> int -> op list;
  background_handler : (Ditto_util.Rng.t -> op list) option;
  request_bytes : int;
  response_bytes : int;
  heap_bytes : int;
  shared_bytes : int;
  file_bytes : int;
  resilience : resilience;
  autoscale : autoscale option;
}

let tier ?(server_model = Io_multiplexing) ?(client_model = Sync_client) ?(workers = 4)
    ?(dynamic_threads = false) ?(background = []) ?background_handler ?(request_bytes = 128)
    ?(response_bytes = 512) ?(heap_bytes = 16 * 1024 * 1024) ?(shared_bytes = 1024 * 1024)
    ?(file_bytes = 0) ?(resilience = no_resilience) ?autoscale ~name ~handler () =
  {
    tier_name = name;
    server_model;
    client_model;
    thread_model = { workers; dynamic_threads; background };
    handler;
    background_handler;
    request_bytes;
    response_bytes;
    heap_bytes;
    shared_bytes;
    file_bytes;
    resilience;
    autoscale;
  }

type t = {
  app_name : string;
  tiers : tier list;
  entry : string;
  page_cache_hint : int option;
}

let make ~name ?entry ?page_cache_hint tiers =
  match tiers with
  | [] -> invalid_arg "Spec.make: no tiers"
  | first :: _ ->
      let entry = match entry with Some e -> e | None -> first.tier_name in
      { app_name = name; tiers; entry; page_cache_hint }

let with_resilience res t =
  { t with tiers = List.map (fun tier -> { tier with resilience = res }) t.tiers }

let with_autoscale pol t =
  { t with tiers = List.map (fun tier -> { tier with autoscale = Some pol }) t.tiers }

let find_tier t name =
  match List.find_opt (fun tier -> tier.tier_name = name) t.tiers with
  | Some tier -> tier
  | None -> invalid_arg (Printf.sprintf "Spec.find_tier: unknown tier %S" name)

let is_microservice t = List.length t.tiers > 1

let server_model_name = function
  | Blocking -> "blocking"
  | Nonblocking -> "non-blocking"
  | Io_multiplexing -> "io-multiplexing"

let client_model_name = function
  | Sync_client -> "synchronous"
  | Async_client -> "asynchronous"
