open Ditto_sim
open Ditto_net
module Stats = Ditto_util.Stats
module Rng = Ditto_util.Rng
module Dist = Ditto_util.Dist
module Breaker = Ditto_fault.Breaker
module Injector = Ditto_fault.Injector
module Plan = Ditto_fault.Plan
module Rq = Ditto_obs.Reqtrace
module Ts = Ditto_obs.Timeseries

type load = {
  qps : float;
  connections : int;
  open_loop : bool;
  duration : float;
  client_timeout : float option;
  client_retries : int;
  profile : Rate.t option;
}

let load ?(connections = 16) ?(open_loop = true) ?(duration = 2.0) ?client_timeout
    ?(client_retries = 0) ?profile ~qps () =
  (match profile with Some p -> Rate.check p | None -> ());
  { qps; connections; open_loop; duration; client_timeout; client_retries; profile }

type tier_obs = {
  obs_name : string;
  obs_latency : Stats.summary;
  obs_requests : int;
  obs_net_mbps : float;
  obs_disk_mbps : float;
  obs_timeouts : int;
  obs_retries : int;
  obs_shed : int;
  obs_degraded : int;
  obs_failures : int;
  obs_replicas : int;
  obs_breaker_transitions : int;
  obs_link_drops : int;
}

type scale_event = { se_at : float; se_tier : string; se_from : int; se_to : int }

type result = {
  latency : Stats.summary;
  latency_raw : float array;
  achieved_qps : float;
  completed : int;
  errors : int;
  client_timeouts : int;
  client_retries : int;
  elapsed : float;
  tiers : tier_obs list;
  scale_events : scale_event list;
      (** autoscaler actions in time order; [[]] when no tier carries a
          policy, so pre-surge results are structurally unchanged *)
  timeline : Ts.t option;
      (** windowed telemetry; [Some] only when the run's [timeline] was set *)
  reqtrace : Rq.t option;
      (** sampled request span trees; [Some] only when the run's [reqtrace]
          was set *)
}

(* One serving copy of a tier: its machine plus the per-server-model
   connection state. Server 0 is the primary, on the run's machine; the
   autoscaler appends replicas, each on a fresh machine. A drained replica
   keeps serving its attached connections but takes no new ones, and is
   reactivated before any new machine is created. *)
type server = {
  machine : Machine.t;
  epolls : Socket.Epoll.t array;
      (* the connection sets: one per I/O-multiplexing worker, one that a
         non-blocking server's workers poll, none for a blocking server *)
  mutable epoll_rr : int;
  mutable active : bool;
  nic0 : int;  (* NIC and disk odometers at creation, for teardown bandwidth *)
  disk0 : int;
}

(* One side's tally, a tier's or the load generator's: the latency and
   count of its completed requests, and a count per event kind. One call
   counts an event and, when the run records a timeline, windows it too,
   through the side's series, resolved once at set-up. *)
type tally = {
  lat : Stats.t;
  mutable completed : int;
  mutable timeouts : int;
  mutable retries : int;
  mutable shed : int;
  mutable failures : int;
  mutable degraded : int;
  series : Ts.series option;
}

type tier_rt = {
  spec : Spec.tier;
  mres : Measure.tier_result;
  rng : Rng.t;
  fault : Injector.tier option;  (* the tier's fault state, when a plan is armed *)
  mutable servers : server list;  (* creation order, the primary first *)
  mutable rr : int;  (* round-robin cursor over the active servers *)
  pools : (string, Socket.endpoint Queue.t) Hashtbl.t;
  breakers : (string, Breaker.t) Hashtbl.t;
  tally : tally;
  mutable inflight : int;
  mutable stopped : bool;
}

(* Shared run context threaded through every handler; [inj = None] keeps the
   fault-free execution path byte-for-byte what it was before the chaos
   layer existed (test_parallel's bit-identity invariant). *)
type sys = {
  engine : Engine.t;
  registry : (string, tier_rt) Hashtbl.t;
  tids : int ref;
  inj : Injector.t option;
  rq : Rq.t option;
      (** request-trace collector: [None] (the default — the run's
          [reqtrace] argument is off) keeps every hook to a single option
          match and the event stream byte-identical; when [Some], hooks
          only fire for sampled requests (their span id rides
          [Socket.msg.meta]) *)
  scale_log : scale_event list ref;
      (** autoscaler actions, newest first; only the controller writes *)
}

let fresh_tid counter =
  incr counter;
  !counter

(* Crash-window poll granularity for parked workers of a down tier. *)
let down_poll = 1e-3

(* An error reply (shed / failed RPC) is a small status message, not the
   full response payload. *)
let err_bytes = 64

let tier_down rt = match rt.fault with None -> false | Some f -> not (Injector.up f)

(* Without a timeline ([tl = None], the run's default) every recording
   below is a single option match. *)
let tally tl tier =
  let series = Option.map (fun ts -> Ts.series ts ~tier) tl in
  let lat = Stats.create () in
  { lat; completed = 0; timeouts = 0; retries = 0; shed = 0; failures = 0; degraded = 0; series }

(* One event of kind [c], on the engine's clock. *)
let count sys t (c : Ts.counter) =
  (match c with
  | Timeouts -> t.timeouts <- t.timeouts + 1
  | Retries -> t.retries <- t.retries + 1
  | Shed -> t.shed <- t.shed + 1
  | Failures -> t.failures <- t.failures + 1
  | Degraded -> t.degraded <- t.degraded + 1);
  match t.series with None -> () | Some s -> Ts.count s ~at:(Engine.now sys.engine) c

(* One completed request, [seconds] after it arrived. *)
let complete sys t ~seconds =
  Stats.add t.lat seconds;
  t.completed <- t.completed + 1;
  match t.series with None -> () | Some s -> Ts.latency s ~at:(Engine.now sys.engine) ~seconds

(* Reqtrace helpers: every disabled-path call is one option match (and the
   per-request [span]/[rpc] guard keeps unsampled requests free too). *)
let rq_server_end sys span ?bytes outcome =
  match sys.rq with
  | Some c when span <> 0 -> Rq.server_end c ~span ?bytes ~at:(Engine.now sys.engine) outcome
  | _ -> ()

(* Run [body], bracketed into a [kind] segment of [span] when the request
   is sampled; the unsampled/disabled path runs the bare body. *)
let timed sys ~span kind body =
  if span = 0 then body ()
  else begin
    let t0 = Engine.now sys.engine in
    body ();
    match sys.rq with
    | Some c -> Rq.segment c ~span kind ~start:t0 ~dur:(Engine.now sys.engine -. t0)
    | None -> ()
  end

(* How a call ended: a reply, an error reply, or no reply in time. *)
let call_outcome = function None -> Rq.Timeout | Some m -> if m.Socket.err then Rq.Err else Rq.Ok

(* One RPC attempt on [conn]: send [bytes], wait for the reply (at most
   [timeout] when one is set) and return it, [None] on a timeout. A
   sampled request ([parent <> 0]) gets one RPC span per attempt, the
   client-side view from send to reply or timeout; its id rides the
   request message as [meta] so the callee's server span parents under
   it. An unsampled request is sent without one. *)
let call sys ~parent ~target ~bytes ?timeout conn =
  let rpc =
    match sys.rq with
    | Some c when parent <> 0 -> Rq.rpc_begin c ~parent ~target ~bytes ~at:(Engine.now sys.engine)
    | _ -> 0
  in
  if rpc = 0 then Socket.send conn ~bytes else Socket.send conn ~meta:rpc ~bytes;
  let reply =
    match timeout with
    | None -> Some (Socket.recv_msg conn)
    | Some timeout -> Socket.recv_msg_timeout conn ~timeout
  in
  (match sys.rq with
  | Some c when rpc <> 0 ->
      let bytes = Option.map (fun m -> m.Socket.bytes) reply in
      Rq.rpc_end c ~span:rpc ?bytes ~at:(Engine.now sys.engine) (call_outcome reply)
  | _ -> ());
  reply

(* [mach] is the machine of the server handling the current request: the
   run's machine for a primary, a replica's own otherwise. *)
let run_cpu sys rt ~tid ~mach s =
  let s = match rt.fault with None -> s | Some f -> s *. Injector.slow f in
  (match rt.tally.series with
  | None -> ()
  | Some ts -> Ts.cpu ts ~at:(Engine.now sys.engine) ~seconds:s);
  Ditto_os.Sched.run_oncpu mach.Machine.sched ~thread:tid s

(* Accept-queue depth for load shedding: undelivered messages plus requests
   already being replayed, summed over every server, drained ones too. A
   blocking server has no connection set, so its depth is what it replays. *)
let backlog rt =
  List.fold_left
    (fun acc srv -> Array.fold_left (fun a e -> a + Socket.Epoll.pending_total e) acc srv.epolls)
    rt.inflight rt.servers

(* Live serving capacity: the active servers, the primary always among
   them. The shed and degradation thresholds scale with it — the bounded
   accept queue is a per-server resource. *)
let replica_count rt =
  List.fold_left (fun acc srv -> if srv.active then acc + 1 else acc) 0 rt.servers

(* Routing: new connections round-robin over the active servers. A tier
   that never had a replica routes to its primary without touching the
   cursor. *)
let pick rt =
  match rt.servers with
  | [ primary ] -> primary
  | servers ->
      let active = List.filter (fun srv -> srv.active) servers in
      let srv = List.nth active (rt.rr mod List.length active) in
      rt.rr <- rt.rr + 1;
      srv

(* Every connection into tier [dst]: from tier [src] on [mach], or from
   the load generator, which has no machine. The server is picked first:
   the socket pair must land on the machine whose NIC will carry the
   bytes. Both ends share the loopback when they share a machine, and use
   [nic] and the server's NIC otherwise; each direction gets the fault
   plan's disruptor. Returns the caller's end, the server's end and the
   server. *)
let pair sys ~src ?mach ~nic dst =
  let srv = pick dst in
  let dmach = srv.machine in
  let a_nic, b_nic, latency =
    match mach with
    | Some m when m == dmach -> (m.Machine.loopback, m.Machine.loopback, 5e-6)
    | _ -> (nic, dmach.Machine.nic, 20e-6)
  in
  let a, b = Socket.pair sys.engine ~a_nic ~b_nic ~latency in
  (match sys.inj with
  | None -> ()
  | Some inj ->
      let dst = dst.spec.Spec.tier_name in
      Socket.set_disruptor a (Some (Injector.disruptor inj ~src ~dst));
      Socket.set_disruptor b (Some (Injector.disruptor inj ~src:dst ~dst:src)));
  (a, b, srv)

(* Every worker's loop, whatever the server model: until teardown, a
   worker of a crashed tier polls for the restart every [down_poll];
   otherwise it serves one [step]. *)
let rec work rt step =
  if not rt.stopped then begin
    if tier_down rt then Engine.wait down_poll else step ();
    work rt step
  end

(* Serve one request: replay a measured trace (CPU, disk, sleeps,
   downstream RPCs) then send the response — or shed it when the
   resilience knobs say the tier is overloaded, or serve it degraded when
   utilization crossed the degradation threshold. *)
let rec handle sys rt ~tid ~mach ep (m : Socket.msg) =
  if tier_down rt then (* the process died with the request in hand *) ()
  else
    (* [meta] is the sender's RPC span id when this request is sampled;
       the server span's queue segment is [arrived, now). *)
    let span =
      match sys.rq with
      | Some c when m.meta <> 0 ->
          Rq.server_begin c ~parent:m.meta ~tier:rt.spec.Spec.tier_name ~bytes:m.bytes
            ~arrived:m.arrived ~at:(Engine.now sys.engine)
      | _ -> 0
    in
    match rt.spec.Spec.resilience.Spec.queue_bound with
    | Some bound when backlog rt > bound * replica_count rt ->
        reply_err sys rt ~span ep Ts.Shed Rq.Shed
    | _ ->
        let deg =
          match rt.spec.Spec.resilience.Spec.degrade with
          | Some d when backlog rt > d.Spec.degrade_queue * replica_count rt -> Some d
          | _ -> None
        in
        let tidx = Rng.int rt.rng (Array.length rt.mres.Measure.traces) in
        let trace = rt.mres.Measure.traces.(tidx) in
        (match sys.rq with
        | Some c when span <> 0 -> Rq.server_op c ~span ~op:tidx
        | _ -> ());
        rt.inflight <- rt.inflight + 1;
        let ok = replay sys rt ~tid ~mach ~span ~deg trace in
        rt.inflight <- rt.inflight - 1;
        if ok then begin
          let resp_bytes =
            match deg with
            | None -> rt.spec.Spec.response_bytes
            | Some d ->
                count sys rt.tally Ts.Degraded;
                max 1
                  (int_of_float
                     (float_of_int rt.spec.Spec.response_bytes *. d.Spec.degrade_response_scale))
          in
          rq_server_end sys span ~bytes:resp_bytes Rq.Ok;
          Socket.send ep ~bytes:resp_bytes;
          complete sys rt.tally ~seconds:(Engine.now sys.engine -. m.arrived)
        end
        else reply_err sys rt ~span ep Ts.Failures Rq.Err

(* A shed request, or one whose downstream call failed, gets a small error
   reply. *)
and reply_err sys rt ~span ep kind outcome =
  count sys rt.tally kind;
  rq_server_end sys span ~bytes:err_bytes outcome;
  Socket.send ~err:true ep ~bytes:err_bytes

(* Replay a trace; false when a downstream call ultimately failed (after
   retries), in which case the remaining synchronous segments are skipped —
   the handler aborts like a real RPC server surfacing an upstream error.
   On a sampled request, local work (CPU, disk, think) is bracketed into
   [Service] segments. *)
and replay sys rt ~tid ~mach ~span ~deg trace =
  let pending = ref [] in
  let failed = ref false in
  (* The unsampled path runs each body with no call in between. *)
  let timed body = if span = 0 then body () else timed sys ~span Rq.Service body in
  List.iter
    (fun seg ->
      if not !failed then
        match seg with
        | Measure.Cpu s ->
            let s =
              match deg with None -> s | Some d -> s *. d.Spec.degrade_cpu_scale
            in
            timed (fun () -> run_cpu sys rt ~tid ~mach s)
        | Measure.Disk_read { bytes; random } ->
            timed (fun () -> Ditto_storage.Disk.read mach.Machine.disk ~bytes ~random)
        | Measure.Disk_write { bytes } ->
            (* Buffered write: flushed in the background. *)
            Engine.fork (fun () -> Ditto_storage.Disk.write mach.Machine.disk ~bytes)
        | Measure.Sleep s -> (
            match deg with
            | Some d when d.Spec.degrade_skip_sleeps -> ()
            | _ -> timed (fun () -> Engine.wait s))
        | Measure.Downstream { target; req_bytes; _ } -> (
            match rt.spec.Spec.client_model with
            | Spec.Sync_client ->
                if not (downstream sys rt ~mach ~span target req_bytes) then failed := true
            | Spec.Async_client ->
                let iv = Engine.Ivar.create () in
                Engine.fork (fun () ->
                    Engine.Ivar.fill iv (downstream sys rt ~mach ~span target req_bytes));
                pending := iv :: !pending))
    trace;
  List.iter (fun iv -> if not (Engine.Ivar.read iv) then failed := true) !pending;
  not !failed

(* One downstream RPC under the tier's resilience knobs: circuit breaker
   (fail fast while open), per-call timeout (a timed-out connection is
   poisoned — a late reply must not desynchronise the request/response
   pairing, so it is dropped like a closed TCP connection), and bounded
   retries with exponential backoff + deterministic jitter from the tier's
   seeded RNG. Returns true on success. *)
and downstream sys rt ~mach ~span target req_bytes =
  let drt =
    match Hashtbl.find_opt sys.registry target with
    | Some d -> d
    | None -> invalid_arg (Printf.sprintf "Service: unknown downstream tier %S" target)
  in
  let res = rt.spec.Spec.resilience in
  let pool =
    match Hashtbl.find_opt rt.pools target with
    | Some q -> q
    | None ->
        let q = Queue.create () in
        Hashtbl.add rt.pools target q;
        q
  in
  let breaker =
    match res.Spec.breaker with
    | None -> None
    | Some config -> (
        match Hashtbl.find_opt rt.breakers target with
        | Some br -> Some br
        | None ->
            let br = Breaker.create ~config () in
            Hashtbl.add rt.breakers target br;
            Some br)
  in
  let attempt () =
    match breaker with
    | Some br when not (Breaker.allow br ~now:(Engine.now sys.engine)) -> false
    | _ ->
        let conn =
          match Queue.take_opt pool with
          | Some c -> c
          | None ->
              let a, b, srv =
                pair sys ~src:rt.spec.Spec.tier_name ~mach ~nic:mach.Machine.nic drt
              in
              attach sys drt srv b;
              a
        in
        let timeout = res.Spec.call_timeout in
        let ok =
          match call sys ~parent:span ~target ~bytes:req_bytes ?timeout conn with
          | Some m ->
              Queue.push conn pool;
              not m.Socket.err
          | None ->
              count sys rt.tally Ts.Timeouts;
              false
        in
        (match breaker with
        | Some br -> Breaker.record br ~now:(Engine.now sys.engine) ~ok
        | None -> ());
        ok
  in
  let rec go n =
    if attempt () then true
    else if n >= res.Spec.max_retries then false
    else begin
      count sys rt.tally Ts.Retries;
      let backoff = res.Spec.retry_backoff *. (2.0 ** float_of_int n) in
      if backoff > 0.0 then begin
        let d = backoff *. (0.5 +. Rng.float rt.rng 1.0) in
        timed sys ~span Rq.Backoff (fun () -> Engine.wait d)
      end;
      go (n + 1)
    end
  in
  go 0

(* Register a new inbound connection on the server chosen by [pick]. A
   blocking tier serves it on a thread of its own (spawned dynamically for
   services like MongoDB whose thread count follows the connection count);
   the polling models add it to one of the server's connection sets,
   round-robin. *)
and attach sys rt srv ep =
  match rt.spec.Spec.server_model with
  | Spec.Blocking ->
      let tid = fresh_tid sys.tids in
      Engine.fork (fun () ->
          work rt (fun () ->
              let m = Socket.recv_msg ep in
              handle sys rt ~tid ~mach:srv.machine ep m))
  | Spec.Io_multiplexing | Spec.Nonblocking ->
      Socket.Epoll.add srv.epolls.(srv.epoll_rr mod Array.length srv.epolls) ep;
      srv.epoll_rr <- srv.epoll_rr + 1

(* An I/O-multiplexing worker's step: wait for readiness, then drain each
   ready connection. *)
let epoll_step sys rt ~tid ~mach epoll =
  List.iter
    (fun ep ->
      let rec drain () =
        (* Stop draining the instant the tier crashes: queued
           requests must survive to be the restart's backlog. *)
        if not (tier_down rt) then
          match Socket.try_recv_msg ep with
          | Some m ->
              handle sys rt ~tid ~mach ep m;
              drain ()
          | None -> ()
      in
      drain ())
    (Socket.Epoll.wait ~timeout:0.1 epoll)

(* A non-blocking worker's step: poll every connection of the server's
   set once, newest first. *)
let poll_step sys rt ~tid ~mach epoll =
  let poll_interval = 20e-6 and poll_cpu = 1.5e-6 in
  let got = ref false in
  List.iter
    (fun ep ->
      match Socket.try_recv_msg ep with
      | Some m ->
          got := true;
          handle sys rt ~tid ~mach ep m
      | None -> ())
    (Socket.Epoll.endpoints epoll);
  (* Polling burns CPU even when idle — the §4.3.1 caveat. *)
  run_cpu sys rt ~tid ~mach poll_cpu;
  if not !got then Engine.wait poll_interval

(* Background work runs on the primary's machine only. *)
let background_thread sys rt ~tid period trace =
  let mach = (List.hd rt.servers).machine in
  let rec loop () =
    if not rt.stopped then begin
      Engine.wait period;
      if not (tier_down rt) then
        List.iter
          (fun seg ->
            match seg with
            | Measure.Cpu s -> run_cpu sys rt ~tid ~mach s
            | Measure.Disk_read { bytes; random } ->
                Ditto_storage.Disk.read mach.Machine.disk ~bytes ~random
            | Measure.Disk_write { bytes } ->
                Engine.fork (fun () -> Ditto_storage.Disk.write mach.Machine.disk ~bytes)
            | Measure.Sleep s -> Engine.wait s
            | Measure.Downstream _ -> ())
          trace;
      loop ()
    end
  in
  loop ()

(* Bytes through a machine's NIC (both directions) and its disk so far. *)
let odometers (m : Machine.t) =
  ( Nic.bytes_sent m.Machine.nic + Nic.bytes_received m.Machine.nic,
    Ditto_storage.Disk.bytes_read m.Machine.disk + Ditto_storage.Disk.bytes_written m.Machine.disk
  )

(* A fresh, active server of [spec] on [machine]. *)
let server (spec : Spec.tier) machine =
  let nepolls =
    match spec.Spec.server_model with
    | Spec.Io_multiplexing -> max 1 spec.Spec.thread_model.Spec.workers
    | Spec.Nonblocking -> 1
    | Spec.Blocking -> 0
  in
  let nic0, disk0 = odometers machine in
  {
    machine;
    epolls = Array.init nepolls (fun _ -> Socket.Epoll.create ());
    epoll_rr = 0;
    active = true;
    nic0;
    disk0;
  }

(* Start a server's workers, each bound to the server's machine and one
   of its connection sets. [spawn] is [Engine.spawn engine] at setup time
   and [Engine.fork] from inside the autoscaler's process. A blocking tier
   has none: its threads start per connection, in [attach]. *)
let start_workers sys rt srv ~spawn =
  let mach = srv.machine in
  let worker step =
    let tid = fresh_tid sys.tids in
    spawn (fun () -> work rt (fun () -> step ~tid))
  in
  match rt.spec.Spec.server_model with
  | Spec.Io_multiplexing ->
      Array.iter (fun epoll -> worker (fun ~tid -> epoll_step sys rt ~tid ~mach epoll)) srv.epolls
  | Spec.Nonblocking ->
      for _ = 1 to max 1 rt.spec.Spec.thread_model.Spec.workers do
        worker (fun ~tid -> poll_step sys rt ~tid ~mach srv.epolls.(0))
      done
  | Spec.Blocking -> ()

(* --- Horizontal autoscaling ------------------------------------------ *)

(* Bring one more replica online: reactivate the first drained one if any
   (no machine churn), otherwise append a server on a fresh machine
   mirroring the primary's platform and core count. *)
let scale_up_one sys rt ~spawn =
  match List.find_opt (fun srv -> not srv.active) rt.servers with
  | Some srv -> srv.active <- true
  | None ->
      let m = (List.hd rt.servers).machine in
      let srv =
        server rt.spec
          (Machine.create ~cores:(Machine.ncores m) m.Machine.engine m.Machine.platform)
      in
      rt.servers <- rt.servers @ [ srv ];
      start_workers sys rt srv ~spawn

(* Drain the newest active replica: it stops taking new connections but
   keeps serving the ones it has. The primary, first and never drained,
   is never the newest of two or more active servers. *)
let scale_down_one rt =
  match List.rev (List.filter (fun srv -> srv.active) rt.servers) with
  | srv :: _ :: _ -> srv.active <- false
  | _ -> ()

let apply_scale sys rt ~spawn ~from_n ~to_n =
  if to_n > from_n then
    for _ = from_n + 1 to to_n do scale_up_one sys rt ~spawn done
  else
    for _ = to_n + 1 to from_n do scale_down_one rt done;
  let now = Engine.now sys.engine in
  let e = { se_at = now; se_tier = rt.spec.Spec.tier_name; se_from = from_n; se_to = to_n } in
  sys.scale_log := e :: !(sys.scale_log)

(* The controller is a DES process (Engine.every callbacks cannot spawn
   workers): every interval it reads the per-replica backlog — pure state,
   no RNG, no messages — and runs a PI step in the HPA style,
   [desired = n * (1 + kp*err + ki*integral)] with the error normalised to
   the queue setpoint. Hysteresis (deadband) and cooldown gate actuation;
   the integral is clamped (anti-windup) and reset after each scale event
   (bumpless restart). Everything it does is a deterministic function of
   the DES clock and queue state, so scale trajectories are reproducible
   bit-for-bit across runs and pool sizes. *)
let autoscaler sys rt ~engine ~t_end (pol : Spec.autoscale) =
  Engine.spawn engine (fun () ->
      let integral = ref 0.0 in
      let last_scale = ref neg_infinity in
      let rec loop () =
        Engine.wait pol.Spec.as_interval;
        let now = Engine.now sys.engine in
        if now < t_end && not rt.stopped then begin
          (if not (tier_down rt) then begin
             let n = replica_count rt in
             let q = float_of_int (backlog rt) /. float_of_int n in
             let err = (q -. pol.Spec.as_target_queue) /. pol.Spec.as_target_queue in
             if Float.abs err > pol.Spec.as_deadband then begin
               integral :=
                 Float.max (-4.0) (Float.min 4.0 (!integral +. (err *. pol.Spec.as_interval)));
               let adj = (pol.Spec.as_kp *. err) +. (pol.Spec.as_ki *. !integral) in
               let desired =
                 max pol.Spec.as_min_replicas
                   (min pol.Spec.as_max_replicas
                      (int_of_float (Float.round (float_of_int n *. (1.0 +. adj)))))
               in
               if desired <> n && now -. !last_scale >= pol.Spec.as_cooldown then begin
                 apply_scale sys rt ~spawn:Engine.fork ~from_n:n ~to_n:desired;
                 last_scale := now;
                 integral := 0.0
               end
             end
           end);
          loop ()
        end
      in
      loop ())

(* One client connection and the one process that serves it. Each
   submitted request is an entry in [waiting] (its submission time and
   trace root), not a parked process, and stays there while it is served,
   so the connection is busy exactly when [waiting] is non-empty. [parked]
   is the serving process's waker once it has started; it is current
   whenever the connection is idle. *)
type conn = {
  mutable ep : Socket.endpoint;  (* re-paired after a client timeout *)
  waiting : (float * int) Queue.t;
  mutable parked : unit Engine.waker option;
}

let run ~(app : Spec.t) ~machine ~results ~seed ?(net_interference_gbps = 0.0) ?fault_plan
    ?(timeline = false) ?(reqtrace = false) l =
  let engine = machine.Machine.engine in
  let registry : (string, tier_rt) Hashtbl.t = Hashtbl.create 8 in
  let tids = ref 0 in
  let root = Rng.create seed in
  let inj =
    match fault_plan with
    | None -> None
    | Some plan ->
        Plan.validate ~duration:l.duration
          ~tiers:(List.map (fun t -> t.Spec.tier_name) app.Spec.tiers)
          plan;
        (* The injector draws from its own stream, offset from the run seed
           so fault coin-flips never perturb the tiers' trace selection. *)
        Some (Injector.create ~engine ~seed:(seed + 104729) plan)
  in
  let tl =
    if not timeline then None
    else
      (* [Engine.now] here equals the load-phase start: the clock cannot
         advance before [Engine.run] below. *)
      Some
        (Ts.create ~start:(Engine.now engine) ~duration:l.duration
           ~tiers:(List.map (fun (t : Spec.tier) -> t.Spec.tier_name) app.Spec.tiers)
           ())
  in
  let rq =
    if not reqtrace then None
    else
      (* Sampling hashes the run seed with a request counter — no RNG
         stream is consumed, so the simulated results of a traced run
         are byte-identical to an untraced run's. *)
      Some (Rq.create ~seed ())
  in
  let sys = { engine; registry; tids; inj; rq; scale_log = ref [] } in
  let rts =
    List.map
      (fun (tier : Spec.tier) ->
        let rt =
          {
            spec = tier;
            mres = results tier.Spec.tier_name;
            rng = Rng.split root;
            fault = Option.map (fun i -> Injector.tier i tier.Spec.tier_name) inj;
            servers = [ server tier machine ];
            rr = 0;
            pools = Hashtbl.create 4;
            breakers = Hashtbl.create 4;
            tally = tally tl tier.Spec.tier_name;
            inflight = 0;
            stopped = false;
          }
        in
        Hashtbl.add registry tier.Spec.tier_name rt;
        rt)
      app.Spec.tiers
  in
  (* Start each primary's workers, then its background threads. *)
  List.iter
    (fun rt ->
      start_workers sys rt (List.hd rt.servers) ~spawn:(Engine.spawn engine);
      match (rt.mres.Measure.background_trace, rt.spec.Spec.thread_model.Spec.background) with
      | Some trace, bgs ->
          List.iter
            (fun (_, period) ->
              let tid = fresh_tid tids in
              Engine.spawn engine (fun () -> background_thread sys rt ~tid period trace))
            bgs
      | None, _ -> ())
    rts;
  (* Pre-scale autoscaled tiers to their policy floor so the first client
     connections already round-robin across [min_replicas] copies. *)
  List.iter
    (fun rt ->
      match rt.spec.Spec.autoscale with
      | None -> ()
      | Some pol ->
          for _ = 2 to pol.Spec.as_min_replicas do
            scale_up_one sys rt ~spawn:(Engine.spawn engine)
          done)
    rts;
  let entry = Hashtbl.find registry app.Spec.entry in
  (* Client connections (the load generator is its own machine, with its
     own NIC). The entry server is chosen per connection so surge
     scale-out spreads new and re-paired client connections across the
     live servers. *)
  let client_nic = Nic.create engine ~gbps:40.0 in
  let client_pair () = pair sys ~src:Plan.client_tier ~nic:client_nic entry in
  let conns =
    Array.init (max 1 l.connections) (fun _ ->
        let a, b, srv = client_pair () in
        Engine.spawn engine (fun () -> attach sys entry srv b);
        { ep = a; waiting = Queue.create (); parked = None })
  in
  (match inj with Some i -> Injector.arm i ~at:(Engine.now engine) | None -> ());
  let t_start = Engine.now engine in
  let t_end = t_start +. l.duration in
  (* One controller process per autoscaled tier. With no policies this
     spawns nothing, so the event stream is untouched. *)
  List.iter
    (fun rt ->
      match rt.spec.Spec.autoscale with
      | None -> ()
      | Some pol ->
          (match rt.tally.series with
          | None -> ()
          | Some s -> Ts.replicas s ~at:t_start ~count:(replica_count rt));
          autoscaler sys rt ~engine ~t_end pol)
    rts;
  (match tl with
  | None -> ()
  | Some ts ->
      (* Fault markers come straight from the plan (injection times are
         data, not runtime events), and a zero-virtual-time read-only
         ticker samples every tier's accept-queue depth once per window.
         The ticker only shifts engine sequence numbers uniformly, so the
         relative order of all service events — and hence every simulated
         result — is unchanged by enabling telemetry. *)
      (match fault_plan with
      | None -> ()
      | Some plan ->
          List.iter
            (fun (ev : Plan.event) ->
              let label =
                match ev.Plan.kind with
                | Plan.Crash _ -> "crash"
                | Plan.Slowdown _ -> "slowdown"
                | Plan.Link _ -> "link"
                | Plan.Partition _ -> "partition"
              in
              Ts.mark ts ~at:(t_start +. ev.Plan.at) ~label:(label ^ ":" ^ ev.Plan.tier))
            plan.Plan.events);
      (* Flash-crowd onsets are events just like faults: the transient
         scorecard measures reconvergence from them too. *)
      (match l.profile with
      | Some p when not (Rate.is_constant p) ->
          List.iter
            (fun term ->
              match term with
              | Rate.Spike { at; _ } ->
                  Ts.mark ts ~at:(t_start +. at) ~label:("surge:" ^ p.Rate.profile_name)
              | _ -> ())
            p.Rate.shape
      | _ -> ());
      let w = Ts.window_seconds ts in
      Engine.every engine ~start:t_start ~period:w ~until:(t_end -. (0.5 *. w)) (fun at ->
          List.iter
            (fun rt -> Option.iter (fun s -> Ts.queue s ~at ~depth:(backlog rt)) rt.tally.series)
            rts));
  let client = tally tl Ts.client_tier in
  let gen_rng = Rng.split root in
  (* Client-side trace hooks: [root] is 0 for an unsampled request, so
     each is a guard and nothing else on the common path. *)
  let client_start t0 = match rq with Some c -> Rq.client_start c ~at:t0 | None -> 0 in
  let finish root reply =
    match rq with
    | Some c when root <> 0 ->
        Rq.client_finish c ~span:root ~at:(Engine.now engine) (call_outcome reply)
    | _ -> ()
  in
  (* Attempt [n] of one request on connection [c], timed from its
     submission at [t0]. With no client deadline every reply completes the
     request, an error reply too; with one, an error reply or a timeout is
     retried while the budget lasts and then counts as an error. *)
  let rec exchange c ~t0 ~root n =
    let reply =
      call sys ~parent:root ~target:entry.spec.Spec.tier_name
        ~bytes:entry.spec.Spec.request_bytes ?timeout:l.client_timeout c.ep
    in
    match (reply, l.client_timeout) with
    | Some _, None | Some { Socket.err = false; _ }, Some _ ->
        complete sys client ~seconds:(Engine.now engine -. t0);
        finish root reply
    | _ ->
        if Option.is_none reply then begin
          (* Poison the timed-out connection: a late reply must not
             answer the next request. (After an error response the conn
             stays paired.) *)
          count sys client Ts.Timeouts;
          let a, b, srv = client_pair () in
          attach sys entry srv b;
          c.ep <- a
        end;
        if n < l.client_retries then begin
          count sys client Ts.Retries;
          exchange c ~t0 ~root (n + 1)
        end
        else begin
          count sys client Ts.Failures;
          finish root reply
        end
  in
  (* The connection's process: serve the waiting requests in submission
     order, handing itself the next one through one event at the current
     instant, and park once none is left. *)
  let serve c () =
    let park w = c.parked <- Some w in
    let rec loop () =
      let t0, root = Queue.peek c.waiting in
      exchange c ~t0 ~root 0;
      ignore (Queue.take c.waiting);
      if Queue.is_empty c.waiting then Engine.suspend park else Engine.wait 0.0;
      loop ()
    in
    loop ()
  in
  (* An open-loop arrival, in its own event. The clock starts at
     submission, so latency includes any wait for the connection
     (coordinated-omission correction, as in wrk2/mutated). A free
     connection's process takes the request inside this event. *)
  let arrivals =
    Array.map
      (fun c () ->
        let t0 = Engine.now engine in
        let idle = Queue.is_empty c.waiting in
        Queue.push (t0, client_start t0) c.waiting;
        if idle then
          match c.parked with
          | None -> Engine.start engine (serve c)
          | Some w -> Engine.resume w ())
      conns
  in
  (* Closed loop: each connection's own process submits and waits, so a
     request never finds its connection busy. *)
  let request c =
    let t0 = Engine.now engine in
    exchange c ~t0 ~root:(client_start t0) 0
  in
  (* A non-constant profile samples arrivals from its own stream at a fixed
     seed offset; the constant/absent branches below are the pre-profile
     code verbatim, so disabled runs stay bit-identical. *)
  let surge =
    match l.profile with Some p when not (Rate.is_constant p) -> Some p | _ -> None
  in
  (match (l.open_loop, surge) with
  | true, Some p ->
      let prng = Rng.create (seed + 224737) in
      Engine.spawn engine (fun () ->
          let i = ref 0 in
          while Engine.now engine < t_end do
            let arr =
              Rate.next_arrival p prng ~base_qps:l.qps ~t:(Engine.now engine -. t_start)
            in
            Engine.wait arr.Rate.gap;
            if Engine.now engine < t_end then
              for _ = 1 to arr.Rate.batch do
                let ci = !i mod Array.length conns in
                incr i;
                Engine.schedule engine (Engine.now engine) arrivals.(ci)
              done
          done)
  | true, None ->
      Engine.spawn engine (fun () ->
          let i = ref 0 in
          while Engine.now engine < t_end do
            Engine.wait (Dist.exponential gen_rng ~mean:(1.0 /. l.qps));
            let ci = !i mod Array.length conns in
            incr i;
            Engine.schedule engine (Engine.now engine) arrivals.(ci)
          done)
  | false, Some p ->
      (* Closed loop under a profile: think gaps shrink as the multiplier
         rises, still one outstanding request per connection. *)
      let prng = Rng.create (seed + 224737) in
      let per_conn = float_of_int (Array.length conns) in
      Array.iter
        (fun c ->
          Engine.spawn engine (fun () ->
              let next = ref (Engine.now engine) in
              while Engine.now engine < t_end do
                let mult =
                  Float.max 1e-6 (Rate.mult_at p ~t:(Engine.now engine -. t_start))
                in
                let mean = per_conn /. (l.qps *. mult) in
                next := !next +. Dist.exponential prng ~mean;
                let now = Engine.now engine in
                if !next > now then Engine.wait (!next -. now);
                if Engine.now engine < t_end then request c
              done))
        conns
  | false, None ->
      (* Closed loop with rate throttling (YCSB-style: one outstanding request
         per connection; late responses eat into the think gap). *)
      let per_conn_mean = float_of_int (Array.length conns) /. l.qps in
      Array.iter
        (fun c ->
          Engine.spawn engine (fun () ->
              let next = ref (Engine.now engine) in
              while Engine.now engine < t_end do
                next := !next +. Dist.exponential gen_rng ~mean:per_conn_mean;
                let now = Engine.now engine in
                if !next > now then Engine.wait (!next -. now);
                if Engine.now engine < t_end then request c
              done))
        conns);
  (* iperf-style competing stream through the entry machine's NIC. *)
  if net_interference_gbps > 0.0 then begin
    let chunk = 65536 in
    let interval = float_of_int (chunk * 8) /. (net_interference_gbps *. 1e9) in
    Engine.spawn engine (fun () ->
        while Engine.now engine < t_end do
          let t0 = Engine.now engine in
          Nic.transmit machine.Machine.nic ~bytes:chunk;
          let used = Engine.now engine -. t0 in
          if used < interval then Engine.wait (interval -. used)
        done)
  end;
  Engine.run ~until:(t_end +. 0.5) engine;
  List.iter (fun rt -> rt.stopped <- true) rts;
  let scale_events = List.rev !(sys.scale_log) in
  (* The timeline reads each scale event from the log, after the markers
     above: a "scale:" marker (Timeline must not score these as faults)
     and the tier's replica count in the event's window. *)
  Option.iter
    (fun ts ->
      List.iter
        (fun e ->
          let label = Printf.sprintf "scale:%s:%d->%d" e.se_tier e.se_from e.se_to in
          Ts.mark ts ~at:e.se_at ~label;
          Option.iter
            (fun s -> Ts.replicas s ~at:e.se_at ~count:e.se_to)
            (Hashtbl.find registry e.se_tier).tally.series)
        scale_events)
    tl;
  (* Close spans of requests still in flight at teardown (outcome
     Timeout) and freeze the trees for readers. *)
  (match rq with None -> () | Some c -> Rq.finalize c ~at:(Engine.now engine));
  let elapsed = Float.max 1e-9 (Float.min (Engine.now engine) t_end -. t_start) in
  let mbps bytes = float_of_int bytes /. elapsed /. 1e6 in
  let tiers =
    List.map
      (fun rt ->
        (* A tier's bandwidth is what its servers' machines moved since each
           server was created; tiers sharing the run's machine all see its
           whole traffic. *)
        let nic, disk =
          List.fold_left
            (fun (n, d) srv ->
              let nic_now, disk_now = odometers srv.machine in
              (n + nic_now - srv.nic0, d + disk_now - srv.disk0))
            (0, 0) rt.servers
        in
        List.iter (fun srv -> Machine.release srv.machine) (List.tl rt.servers);
        {
          obs_name = rt.spec.Spec.tier_name;
          obs_latency = Stats.summary rt.tally.lat;
          obs_requests = rt.tally.completed;
          obs_net_mbps = mbps nic;
          obs_disk_mbps = mbps disk;
          obs_timeouts = rt.tally.timeouts;
          obs_retries = rt.tally.retries;
          obs_shed = rt.tally.shed;
          obs_degraded = rt.tally.degraded;
          obs_failures = rt.tally.failures;
          obs_replicas = replica_count rt;
          obs_breaker_transitions =
            Hashtbl.fold (fun _ br acc -> acc + Breaker.transitions br) rt.breakers 0;
          obs_link_drops =
            (match inj with
            | None -> 0
            | Some i -> Injector.drops i rt.spec.Spec.tier_name);
        })
      rts
  in
  (* Copy the client latencies before [summary] sorts them in place: the
     raw array keeps completion order. *)
  let latency_raw = Stats.to_array client.lat in
  {
    latency = Stats.summary client.lat;
    latency_raw;
    achieved_qps = float_of_int client.completed /. elapsed;
    completed = client.completed;
    errors = client.failures;
    client_timeouts = client.timeouts;
    client_retries = client.retries;
    elapsed;
    tiers;
    scale_events;
    timeline = tl;
    reqtrace = rq;
  }
