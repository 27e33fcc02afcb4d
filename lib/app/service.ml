open Ditto_sim
open Ditto_net
module Stats = Ditto_util.Stats
module Rng = Ditto_util.Rng
module Dist = Ditto_util.Dist
module Breaker = Ditto_fault.Breaker
module Injector = Ditto_fault.Injector
module Plan = Ditto_fault.Plan
module Rq = Ditto_obs.Reqtrace

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
  timeline : Ditto_obs.Timeseries.t option;
      (** windowed telemetry; [Some] only when the run's [timeline] was set *)
  reqtrace : Ditto_obs.Reqtrace.t option;
      (** sampled request span trees; [Some] only when the run's [reqtrace]
          was set *)
}

(* One horizontally-scaled copy of a tier beyond the built-in primary: its
   own machine (fresh cores/NIC/disk) plus the per-server-model connection
   state. Deactivated replicas drain their attached connections but take
   no new ones, and are reactivated before any new machine is created. *)
type replica = {
  rep_id : int;
  rep_machine : Machine.t;
  rep_epolls : Socket.Epoll.t array;
  mutable rep_epoll_rr : int;
  mutable rep_poll_conns : Socket.endpoint list;
  mutable rep_active : bool;
  rep_nic0 : int;  (* NIC odometer at creation, for teardown bandwidth *)
  rep_disk0 : int;
}

type tier_rt = {
  spec : Spec.tier;
  machine : Machine.t;
  mres : Measure.tier_result;
  rng : Rng.t;
  epolls : Socket.Epoll.t array;
  mutable epoll_rr : int;
  mutable poll_conns : Socket.endpoint list;
  pools : (string, Socket.endpoint Queue.t) Hashtbl.t;
  breakers : (string, Breaker.t) Hashtbl.t;
  lat : Stats.t;
  mutable served : int;
  mutable inflight : int;
  mutable timeouts : int;
  mutable retries : int;
  mutable shed : int;
  mutable failures : int;
  mutable degraded : int;
  mutable replicas : replica list;  (* creation order; [] when autoscaling off *)
  mutable rep_rr : int;  (* round-robin cursor over primary + active replicas *)
  mutable stopped : bool;
}

(* Shared run context threaded through every handler; [inj = None] keeps the
   fault-free execution path byte-for-byte what it was before the chaos
   layer existed (test_parallel's bit-identity invariant). *)
type sys = {
  registry : (string, tier_rt) Hashtbl.t;
  tids : int ref;
  inj : Injector.t option;
  tl : Ditto_obs.Timeseries.t option;
      (** windowed telemetry collector; [None] (the default — the run's
          [timeline] argument is off) keeps every hook to a single option
          match and the event stream byte-identical *)
  rq : Ditto_obs.Reqtrace.t option;
      (** request-trace collector, same discipline: [None] keeps every
          hook to a single option match; when [Some], hooks only fire for
          sampled requests (their span id rides [Socket.msg.meta]) *)
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

let tier_down sys rt =
  match sys.inj with
  | None -> false
  | Some inj -> not (Injector.tier_up inj rt.spec.Spec.tier_name)

let ts_counter sys rt c =
  match sys.tl with
  | None -> ()
  | Some ts ->
      Ditto_obs.Timeseries.record_counter ts ~tier:rt.spec.Spec.tier_name ~at:(Engine.time ()) c

(* Reqtrace helpers: every disabled-path call is one option match (and the
   per-request [span]/[rpc] guard keeps unsampled requests free too). *)
let rq_seg sys ~span kind ~t0 =
  match sys.rq with
  | Some c when span <> 0 -> Rq.segment c ~span kind ~start:t0 ~dur:(Engine.time () -. t0)
  | _ -> ()

let rq_rpc_end sys rpc ?bytes outcome =
  match sys.rq with
  | Some c when rpc <> 0 -> Rq.rpc_end c ~span:rpc ?bytes ~at:(Engine.time ()) outcome
  | _ -> ()

let rq_server_end sys span ?bytes outcome =
  match sys.rq with
  | Some c when span <> 0 -> Rq.server_end c ~span ?bytes ~at:(Engine.time ()) outcome
  | _ -> ()

(* [mach] is the machine serving the current request: the tier's primary,
   or a replica's when the autoscaler routed the connection there. With
   autoscaling off it is always [rt.machine]. *)
let run_cpu sys rt ~tid ~mach s =
  let s =
    match sys.inj with
    | None -> s
    | Some inj -> s *. Injector.slow_factor inj rt.spec.Spec.tier_name
  in
  (match sys.tl with
  | None -> ()
  | Some ts ->
      Ditto_obs.Timeseries.record_cpu ts ~tier:rt.spec.Spec.tier_name ~at:(Engine.time ())
        ~seconds:s);
  Ditto_os.Sched.run_oncpu mach.Machine.sched ~thread:tid s

(* Accept-queue depth for load shedding: undelivered messages plus requests
   already being replayed, summed over the primary and every replica. *)
let backlog rt =
  let base =
    match rt.spec.Spec.server_model with
    | Spec.Io_multiplexing ->
        Array.fold_left (fun acc e -> acc + Socket.Epoll.pending_total e) rt.inflight rt.epolls
    | Spec.Nonblocking ->
        List.fold_left (fun acc ep -> acc + Socket.pending ep) rt.inflight rt.poll_conns
    | Spec.Blocking -> rt.inflight
  in
  match rt.replicas with
  | [] -> base
  | reps ->
      List.fold_left
        (fun acc rep ->
          match rt.spec.Spec.server_model with
          | Spec.Io_multiplexing ->
              Array.fold_left (fun a e -> a + Socket.Epoll.pending_total e) acc rep.rep_epolls
          | Spec.Nonblocking ->
              List.fold_left (fun a ep -> a + Socket.pending ep) acc rep.rep_poll_conns
          | Spec.Blocking -> acc)
        base reps

(* Live serving capacity: the primary plus active replicas. The shed and
   degradation thresholds scale with it — the bounded accept queue is a
   per-replica resource. *)
let replica_count rt =
  1 + List.fold_left (fun acc r -> if r.rep_active then acc + 1 else acc) 0 rt.replicas

type slot = Primary | Rep of replica

let slot_machine rt = function Primary -> rt.machine | Rep r -> r.rep_machine

(* Replica-aware routing: new connections round-robin over the primary and
   the active replicas. With no replicas this is branch-free [Primary] and
   the cursor is never touched, keeping the disabled path identical. *)
let pick_slot rt =
  match rt.replicas with
  | [] -> Primary
  | reps ->
      let slots =
        Primary :: List.filter_map (fun r -> if r.rep_active then Some (Rep r) else None) reps
      in
      let k = rt.rep_rr mod List.length slots in
      rt.rep_rr <- rt.rep_rr + 1;
      List.nth slots k

(* Serve one request whose bytes arrived at [arrived]: replay a measured
   trace (CPU, disk, sleeps, downstream RPCs) then send the response — or
   shed it when the resilience knobs say the tier is overloaded, or serve
   it degraded when utilization crossed the degradation threshold. *)
let rec handle sys rt ~tid ~mach ep ~arrived ~meta ~bytes =
  if tier_down sys rt then (* the process died with the request in hand *) ()
  else
    (* [meta] is the sender's RPC span id when this request is sampled;
       the server span's queue segment is [arrived, now). *)
    let span =
      match sys.rq with
      | Some c when meta <> 0 ->
          Rq.server_begin c ~parent:meta ~tier:rt.spec.Spec.tier_name ~bytes ~arrived
            ~at:(Engine.time ())
      | _ -> 0
    in
    match rt.spec.Spec.resilience.Spec.queue_bound with
    | Some bound when backlog rt > bound * replica_count rt ->
        rt.shed <- rt.shed + 1;
        ts_counter sys rt Ditto_obs.Timeseries.Shed;
        rq_server_end sys span ~bytes:err_bytes Rq.Shed;
        Socket.send ~err:true ep ~bytes:err_bytes
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
                rt.degraded <- rt.degraded + 1;
                ts_counter sys rt Ditto_obs.Timeseries.Degraded;
                max 1
                  (int_of_float
                     (float_of_int rt.spec.Spec.response_bytes *. d.Spec.degrade_response_scale))
          in
          rq_server_end sys span ~bytes:resp_bytes Rq.Ok;
          Socket.send ep ~bytes:resp_bytes;
          let now = Engine.time () in
          Stats.add rt.lat (now -. arrived);
          rt.served <- rt.served + 1;
          match sys.tl with
          | None -> ()
          | Some ts ->
              Ditto_obs.Timeseries.record_latency ts ~tier:rt.spec.Spec.tier_name ~at:now
                ~seconds:(now -. arrived)
        end
        else begin
          rt.failures <- rt.failures + 1;
          ts_counter sys rt Ditto_obs.Timeseries.Failures;
          rq_server_end sys span ~bytes:err_bytes Rq.Err;
          Socket.send ~err:true ep ~bytes:err_bytes
        end

(* Replay a trace; false when a downstream call ultimately failed (after
   retries), in which case the remaining synchronous segments are skipped —
   the handler aborts like a real RPC server surfacing an upstream error. *)
and replay sys rt ~tid ~mach ~span ~deg trace =
  let pending = ref [] in
  let failed = ref false in
  (* On a sampled request, local work (CPU, disk, think) is bracketed into
     [Service] segments; the unsampled/disabled path runs the bare segment. *)
  let timed body =
    if span = 0 then body ()
    else begin
      let t0 = Engine.time () in
      body ();
      rq_seg sys ~span Rq.Service ~t0
    end
  in
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
        | Measure.Downstream { target; req_bytes; resp_bytes } -> (
            match rt.spec.Spec.client_model with
            | Spec.Sync_client ->
                if not (downstream sys rt ~tid ~mach ~span target req_bytes resp_bytes) then
                  failed := true
            | Spec.Async_client ->
                let iv = Engine.Ivar.create () in
                Engine.fork (fun () ->
                    Engine.Ivar.fill iv
                      (downstream sys rt ~tid ~mach ~span target req_bytes resp_bytes));
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
and downstream sys rt ~tid ~mach ~span target req_bytes _resp_bytes =
  ignore tid;
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
    | Some br when not (Breaker.allow br ~now:(Engine.time ())) -> false
    | _ ->
        let conn =
          match Queue.take_opt pool with Some c -> c | None -> connect sys rt ~mach drt
        in
        (* One RPC span per attempt (client-side view: send until
           reply/timeout); its id rides the request message as [meta] so
           the callee's server span parents under it. *)
        let rpc =
          match sys.rq with
          | Some c when span <> 0 ->
              Rq.rpc_begin c ~parent:span ~target ~bytes:req_bytes ~at:(Engine.time ())
          | _ -> 0
        in
        if rpc = 0 then Socket.send conn ~bytes:req_bytes
        else Socket.send conn ~meta:rpc ~bytes:req_bytes;
        let ok =
          match res.Spec.call_timeout with
          | None ->
              let m = Socket.recv_msg conn in
              Queue.push conn pool;
              rq_rpc_end sys rpc ~bytes:m.Socket.bytes
                (if m.Socket.err then Rq.Err else Rq.Ok);
              not m.Socket.err
          | Some timeout -> (
              match Socket.recv_msg_timeout conn ~timeout with
              | Some m ->
                  Queue.push conn pool;
                  rq_rpc_end sys rpc ~bytes:m.Socket.bytes
                    (if m.Socket.err then Rq.Err else Rq.Ok);
                  not m.Socket.err
              | None ->
                  rt.timeouts <- rt.timeouts + 1;
                  ts_counter sys rt Ditto_obs.Timeseries.Timeouts;
                  rq_rpc_end sys rpc Rq.Timeout;
                  false)
        in
        (match breaker with
        | Some br -> Breaker.record br ~now:(Engine.time ()) ~ok
        | None -> ());
        ok
  in
  let rec go n =
    if attempt () then true
    else if n >= res.Spec.max_retries then false
    else begin
      rt.retries <- rt.retries + 1;
      ts_counter sys rt Ditto_obs.Timeseries.Retries;
      let backoff = res.Spec.retry_backoff *. (2.0 ** float_of_int n) in
      if backoff > 0.0 then begin
        let d = backoff *. (0.5 +. Rng.float rt.rng 1.0) in
        if span = 0 then Engine.wait d
        else begin
          let t0 = Engine.time () in
          Engine.wait d;
          rq_seg sys ~span Rq.Backoff ~t0
        end
      end;
      go (n + 1)
    end
  in
  go 0

and connect sys rt ~mach drt =
  (* Pick the destination replica first: the socket pair must land on the
     machine whose NIC will carry the bytes. *)
  let slot = pick_slot drt in
  let dmach = slot_machine drt slot in
  let same = mach == dmach in
  let a_nic = if same then mach.Machine.loopback else mach.Machine.nic in
  let b_nic = if same then dmach.Machine.loopback else dmach.Machine.nic in
  let latency = if same then 5e-6 else 20e-6 in
  let client_ep, server_ep = Socket.pair mach.Machine.engine ~a_nic ~b_nic ~latency in
  (match sys.inj with
  | None -> ()
  | Some inj ->
      let src = rt.spec.Spec.tier_name and dst = drt.spec.Spec.tier_name in
      Socket.set_disruptor client_ep (Some (Injector.disruptor inj ~src ~dst));
      Socket.set_disruptor server_ep (Some (Injector.disruptor inj ~src:dst ~dst:src)));
  attach_slot sys drt slot server_ep;
  client_ep

(* Register a new inbound connection according to the server's network and
   thread model, on the routing slot chosen by [pick_slot]. *)
and attach_slot sys rt slot ep =
  match (rt.spec.Spec.server_model, slot) with
  | Spec.Io_multiplexing, Primary ->
      Socket.Epoll.add rt.epolls.(rt.epoll_rr mod Array.length rt.epolls) ep;
      rt.epoll_rr <- rt.epoll_rr + 1
  | Spec.Io_multiplexing, Rep r ->
      Socket.Epoll.add r.rep_epolls.(r.rep_epoll_rr mod Array.length r.rep_epolls) ep;
      r.rep_epoll_rr <- r.rep_epoll_rr + 1
  | Spec.Blocking, _ ->
      (* Thread-per-connection (spawned dynamically for services like
         MongoDB whose thread count follows the connection count). *)
      let tid = fresh_tid sys.tids in
      let mach = slot_machine rt slot in
      Engine.fork (fun () -> blocking_loop sys rt ~tid ~mach ep)
  | Spec.Nonblocking, Primary -> rt.poll_conns <- ep :: rt.poll_conns
  | Spec.Nonblocking, Rep r -> r.rep_poll_conns <- ep :: r.rep_poll_conns


and blocking_loop sys rt ~tid ~mach ep =
  if not rt.stopped then
    if tier_down sys rt then begin
      Engine.wait down_poll;
      blocking_loop sys rt ~tid ~mach ep
    end
    else begin
      let m = Socket.recv_msg ep in
      handle sys rt ~tid ~mach ep ~arrived:m.Socket.arrived ~meta:m.Socket.meta
        ~bytes:m.Socket.bytes;
      blocking_loop sys rt ~tid ~mach ep
    end

(* Workers are bound to one machine (primary or replica) and, for the
   polling models, to that machine's connection set. *)
let epoll_worker sys rt ~tid ~mach epoll =
  let rec loop () =
    if not rt.stopped then
      if tier_down sys rt then begin
        Engine.wait down_poll;
        loop ()
      end
      else
        match Socket.Epoll.wait ~timeout:0.1 epoll with
        | [] -> loop ()
        | ready ->
            List.iter
              (fun ep ->
                let rec drain () =
                  (* Stop draining the instant the tier crashes: queued
                     requests must survive to be the restart's backlog. *)
                  if not (tier_down sys rt) then
                    match Socket.try_recv_msg ep with
                    | Some m ->
                        handle sys rt ~tid ~mach ep ~arrived:m.Socket.arrived
                          ~meta:m.Socket.meta ~bytes:m.Socket.bytes;
                        drain ()
                    | None -> ()
                in
                drain ())
              ready;
            loop ()
  in
  loop ()

let nonblocking_worker sys rt ~tid ~mach ~conns =
  let poll_interval = 20e-6 and poll_cpu = 1.5e-6 in
  let rec loop () =
    if not rt.stopped then
      if tier_down sys rt then begin
        Engine.wait down_poll;
        loop ()
      end
      else begin
        let got = ref false in
        List.iter
          (fun ep ->
            match Socket.try_recv_msg ep with
            | Some m ->
                got := true;
                handle sys rt ~tid ~mach ep ~arrived:m.Socket.arrived ~meta:m.Socket.meta
                  ~bytes:m.Socket.bytes
            | None -> ())
          (conns ());
        (* Polling burns CPU even when idle — the §4.3.1 caveat. *)
        run_cpu sys rt ~tid ~mach poll_cpu;
        if not !got then Engine.wait poll_interval;
        loop ()
      end
  in
  loop ()

let background_thread sys rt ~tid period trace =
  let rec loop () =
    if not rt.stopped then begin
      Engine.wait period;
      if not (tier_down sys rt) then
        List.iter
          (fun seg ->
            match seg with
            | Measure.Cpu s -> run_cpu sys rt ~tid ~mach:rt.machine s
            | Measure.Disk_read { bytes; random } ->
                Ditto_storage.Disk.read rt.machine.Machine.disk ~bytes ~random
            | Measure.Disk_write { bytes } ->
                Engine.fork (fun () -> Ditto_storage.Disk.write rt.machine.Machine.disk ~bytes)
            | Measure.Sleep s -> Engine.wait s
            | Measure.Downstream _ -> ())
          trace;
      loop ()
    end
  in
  loop ()

(* --- Horizontal autoscaling ------------------------------------------ *)

(* Bring one more replica online: reactivate a drained one if available
   (no machine churn), otherwise create a fresh machine mirroring the
   primary's platform/core count and spawn its worker set. [spawn] is
   [Engine.spawn engine] at setup time and [Engine.fork] from inside the
   controller process. *)
let scale_up_one sys rt ~spawn =
  match List.find_opt (fun r -> not r.rep_active) rt.replicas with
  | Some r -> r.rep_active <- true
  | None ->
      let mach =
        Machine.create ~cores:(Machine.ncores rt.machine) rt.machine.Machine.engine
          rt.machine.Machine.platform
      in
      let workers = max 1 rt.spec.Spec.thread_model.Spec.workers in
      let nepolls =
        match rt.spec.Spec.server_model with Spec.Io_multiplexing -> workers | _ -> 0
      in
      let rep =
        {
          rep_id = List.length rt.replicas + 1;
          rep_machine = mach;
          rep_epolls = Array.init nepolls (fun _ -> Socket.Epoll.create ());
          rep_epoll_rr = 0;
          rep_poll_conns = [];
          rep_active = true;
          rep_nic0 = Nic.bytes_sent mach.Machine.nic + Nic.bytes_received mach.Machine.nic;
          rep_disk0 =
            Ditto_storage.Disk.bytes_read mach.Machine.disk
            + Ditto_storage.Disk.bytes_written mach.Machine.disk;
        }
      in
      rt.replicas <- rt.replicas @ [ rep ];
      (match rt.spec.Spec.server_model with
      | Spec.Io_multiplexing ->
          Array.iter
            (fun epoll ->
              let tid = fresh_tid sys.tids in
              spawn (fun () -> epoll_worker sys rt ~tid ~mach epoll))
            rep.rep_epolls
      | Spec.Nonblocking ->
          for _ = 1 to workers do
            let tid = fresh_tid sys.tids in
            spawn (fun () -> nonblocking_worker sys rt ~tid ~mach ~conns:(fun () -> rep.rep_poll_conns))
          done
      | Spec.Blocking -> (* threads spawn per connection in [attach_slot] *) ())

(* Drain the newest active replica: it stops taking new connections but
   keeps serving the ones it has. The primary never scales in. *)
let scale_down_one rt =
  match List.rev (List.filter (fun r -> r.rep_active) rt.replicas) with
  | r :: _ -> r.rep_active <- false
  | [] -> ()

let apply_scale sys rt ~spawn ~from_n ~to_n =
  if to_n > from_n then
    for _ = from_n + 1 to to_n do scale_up_one sys rt ~spawn done
  else
    for _ = to_n + 1 to from_n do scale_down_one rt done;
  let now = Engine.time () in
  let tier = rt.spec.Spec.tier_name in
  sys.scale_log := { se_at = now; se_tier = tier; se_from = from_n; se_to = to_n } :: !(sys.scale_log);
  match sys.tl with
  | None -> ()
  | Some ts ->
      (* "scale:" prefix: Timeline must not score these as faults *)
      Ditto_obs.Timeseries.mark ts ~at:now
        ~label:(Printf.sprintf "scale:%s:%d->%d" tier from_n to_n);
      Ditto_obs.Timeseries.record_replicas ts ~tier ~at:now ~count:to_n

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
        let now = Engine.time () in
        if now < t_end && not rt.stopped then begin
          (if not (tier_down sys rt) then begin
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

let dedupe_machines rts =
  let seen = Hashtbl.create 16 in
  List.fold_left
    (fun acc rt ->
      if Hashtbl.mem seen rt.machine.Machine.uid then acc
      else begin
        Hashtbl.add seen rt.machine.Machine.uid ();
        rt.machine :: acc
      end)
    [] rts

let run ~engine ~(app : Spec.t) ~placement ~results ~seed ?(net_interference_gbps = 0.0)
    ?fault_plan ?(timeline = false) ?(reqtrace = false) l =
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
        (Ditto_obs.Timeseries.create ~start:(Engine.now engine) ~duration:l.duration
           ~tiers:(List.map (fun (t : Spec.tier) -> t.Spec.tier_name) app.Spec.tiers)
           ())
  in
  let rq =
    if not reqtrace then None
    else
      (* Sampling hashes the run seed with a request counter — no RNG
         stream is consumed, so the simulated results of a traced run
         are byte-identical to an untraced run's. *)
      Some (Ditto_obs.Reqtrace.create ~seed ())
  in
  let sys = { registry; tids; inj; tl; rq; scale_log = ref [] } in
  let rts =
    List.map
      (fun (tier : Spec.tier) ->
        let rt =
          {
            spec = tier;
            machine = placement tier.Spec.tier_name;
            mres = results tier.Spec.tier_name;
            rng = Rng.split root;
            epolls =
              Array.init (max 1 tier.Spec.thread_model.Spec.workers) (fun _ ->
                  Socket.Epoll.create ());
            epoll_rr = 0;
            poll_conns = [];
            pools = Hashtbl.create 4;
            breakers = Hashtbl.create 4;
            lat = Stats.create ();
            served = 0;
            inflight = 0;
            timeouts = 0;
            retries = 0;
            shed = 0;
            failures = 0;
            degraded = 0;
            replicas = [];
            rep_rr = 0;
            stopped = false;
          }
        in
        Hashtbl.add registry tier.Spec.tier_name rt;
        rt)
      app.Spec.tiers
  in
  (* Spawn server workers. *)
  List.iter
    (fun rt ->
      (match rt.spec.Spec.server_model with
      | Spec.Io_multiplexing ->
          Array.iter
            (fun epoll ->
              let tid = fresh_tid tids in
              Engine.spawn engine (fun () -> epoll_worker sys rt ~tid ~mach:rt.machine epoll))
            rt.epolls
      | Spec.Nonblocking ->
          for _ = 1 to max 1 rt.spec.Spec.thread_model.Spec.workers do
            let tid = fresh_tid tids in
            Engine.spawn engine (fun () ->
                nonblocking_worker sys rt ~tid ~mach:rt.machine ~conns:(fun () -> rt.poll_conns))
          done
      | Spec.Blocking -> (* threads spawn per connection in [attach] *) ());
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
  let machines = dedupe_machines rts in
  (* Pre-run NIC/disk odometers, keyed by machine uid so the teardown pass
     below stays O(tiers) instead of re-scanning the machine list per tier. *)
  let before : (int, int * int) Hashtbl.t = Hashtbl.create 16 in
  List.iter
    (fun m ->
      Hashtbl.replace before m.Machine.uid
        ( Nic.bytes_sent m.Machine.nic + Nic.bytes_received m.Machine.nic,
          Ditto_storage.Disk.bytes_read m.Machine.disk
          + Ditto_storage.Disk.bytes_written m.Machine.disk ))
    machines;
  (* Client connections (the load generator is its own machine). The entry
     replica is chosen per connection so surge scale-out spreads new and
     re-paired client connections across the live replica set. *)
  let client_nic = Nic.create engine ~gbps:40.0 in
  let client_pair () =
    let slot = pick_slot entry in
    let dmach = slot_machine entry slot in
    let a, b = Socket.pair engine ~a_nic:client_nic ~b_nic:dmach.Machine.nic ~latency:20e-6 in
    (match inj with
    | None -> ()
    | Some i ->
        let dst = entry.spec.Spec.tier_name in
        Socket.set_disruptor a (Some (Injector.disruptor i ~src:Plan.client_tier ~dst));
        Socket.set_disruptor b (Some (Injector.disruptor i ~src:dst ~dst:Plan.client_tier)));
    (a, b, slot)
  in
  let conns =
    Array.init (max 1 l.connections) (fun _ ->
        let a, b, slot = client_pair () in
        Engine.spawn engine (fun () -> attach_slot sys entry slot b);
        (ref a, Engine.Resource.create 1))
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
          (match tl with
          | None -> ()
          | Some ts ->
              Ditto_obs.Timeseries.record_replicas ts ~tier:rt.spec.Spec.tier_name ~at:t_start
                ~count:(replica_count rt));
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
              Ditto_obs.Timeseries.mark ts ~at:(t_start +. ev.Plan.at)
                ~label:(label ^ ":" ^ ev.Plan.tier))
            plan.Plan.events);
      (* Flash-crowd onsets are events just like faults: the transient
         scorecard measures reconvergence from them too. *)
      (match l.profile with
      | Some p when not (Rate.is_constant p) ->
          List.iter
            (fun term ->
              match term with
              | Rate.Spike { at; _ } ->
                  Ditto_obs.Timeseries.mark ts ~at:(t_start +. at)
                    ~label:("surge:" ^ p.Rate.profile_name)
              | _ -> ())
            p.Rate.shape
      | _ -> ());
      let w = Ditto_obs.Timeseries.window_seconds ts in
      Engine.every engine ~start:t_start ~period:w ~until:(t_end -. (0.5 *. w)) (fun at ->
          List.iter
            (fun rt ->
              Ditto_obs.Timeseries.record_queue ts ~tier:rt.spec.Spec.tier_name ~at
                ~depth:(backlog rt))
            rts));
  let ts_client c =
    match tl with
    | None -> ()
    | Some ts ->
        Ditto_obs.Timeseries.record_counter ts ~tier:Ditto_obs.Timeseries.client_tier
          ~at:(Engine.time ()) c
  in
  let lat = Stats.create () in
  let completed = ref 0 in
  let client_errors = ref 0 in
  let client_timeouts = ref 0 in
  let client_retries_used = ref 0 in
  let gen_rng = Rng.split root in
  (* Client-side trace hooks: [root] / [rpc] are 0 for unsampled requests,
     so every helper below is a guard and nothing else on the common path. *)
  let rq_client_rpc root =
    match rq with
    | Some c when root <> 0 ->
        Rq.rpc_begin c ~parent:root ~target:entry.spec.Spec.tier_name
          ~bytes:entry.spec.Spec.request_bytes ~at:(Engine.time ())
    | _ -> 0
  in
  let rq_client_finish root outcome =
    match rq with
    | Some c when root <> 0 -> Rq.client_finish c ~span:root ~at:(Engine.time ()) outcome
    | _ -> ()
  in
  let do_request ci =
    (* The clock starts at submission: open-loop latency must include any
       wait for a free connection (coordinated-omission correction, as in
       wrk2/mutated). *)
    let t0 = Engine.time () in
    let root = match rq with Some c -> Rq.client_start c ~at:t0 | None -> 0 in
    let conn, mutex = conns.(ci) in
    Engine.Resource.with_resource mutex (fun () ->
        match l.client_timeout with
        | None ->
            let rpc = rq_client_rpc root in
            if rpc = 0 then Socket.send !conn ~bytes:entry.spec.Spec.request_bytes
            else Socket.send !conn ~meta:rpc ~bytes:entry.spec.Spec.request_bytes;
            let m = Socket.recv_msg !conn in
            rq_rpc_end sys rpc ~bytes:m.Socket.bytes
              (if m.Socket.err then Rq.Err else Rq.Ok);
            let now = Engine.time () in
            Stats.add lat (now -. t0);
            incr completed;
            rq_client_finish root (if m.Socket.err then Rq.Err else Rq.Ok);
            (match tl with
            | None -> ()
            | Some ts ->
                Ditto_obs.Timeseries.record_latency ts
                  ~tier:Ditto_obs.Timeseries.client_tier ~at:now ~seconds:(now -. t0))
        | Some timeout ->
            let rec go n =
              let rpc = rq_client_rpc root in
              if rpc = 0 then Socket.send !conn ~bytes:entry.spec.Spec.request_bytes
              else Socket.send !conn ~meta:rpc ~bytes:entry.spec.Spec.request_bytes;
              match Socket.recv_msg_timeout !conn ~timeout with
              | Some m when not m.Socket.err ->
                  rq_rpc_end sys rpc ~bytes:m.Socket.bytes Rq.Ok;
                  let now = Engine.time () in
                  Stats.add lat (now -. t0);
                  incr completed;
                  rq_client_finish root Rq.Ok;
                  (match tl with
                  | None -> ()
                  | Some ts ->
                      Ditto_obs.Timeseries.record_latency ts
                        ~tier:Ditto_obs.Timeseries.client_tier ~at:now ~seconds:(now -. t0))
              | outcome ->
                  (match outcome with
                  | None ->
                      (* Poison the timed-out connection: a late reply must
                         not answer the next request. *)
                      rq_rpc_end sys rpc Rq.Timeout;
                      incr client_timeouts;
                      ts_client Ditto_obs.Timeseries.Timeouts;
                      let a, b, slot = client_pair () in
                      attach_slot sys entry slot b;
                      conn := a
                  | Some m ->
                      (* error response; the conn stays paired *)
                      rq_rpc_end sys rpc ~bytes:m.Socket.bytes Rq.Err);
                  if n < l.client_retries then begin
                    incr client_retries_used;
                    ts_client Ditto_obs.Timeseries.Retries;
                    go (n + 1)
                  end
                  else begin
                    incr client_errors;
                    ts_client Ditto_obs.Timeseries.Failures;
                    rq_client_finish root
                      (match outcome with None -> Rq.Timeout | Some _ -> Rq.Err)
                  end
            in
            go 0)
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
          while Engine.time () < t_end do
            let arr =
              Rate.next_arrival p prng ~base_qps:l.qps ~t:(Engine.time () -. t_start)
            in
            Engine.wait arr.Rate.gap;
            if Engine.time () < t_end then
              for _ = 1 to arr.Rate.batch do
                let ci = !i mod Array.length conns in
                incr i;
                Engine.fork (fun () -> do_request ci)
              done
          done)
  | true, None ->
      Engine.spawn engine (fun () ->
          let i = ref 0 in
          while Engine.time () < t_end do
            Engine.wait (Dist.exponential gen_rng ~mean:(1.0 /. l.qps));
            let ci = !i mod Array.length conns in
            incr i;
            Engine.fork (fun () -> do_request ci)
          done)
  | false, Some p ->
      (* Closed loop under a profile: think gaps shrink as the multiplier
         rises, still one outstanding request per connection. *)
      let prng = Rng.create (seed + 224737) in
      let per_conn = float_of_int (Array.length conns) in
      Array.iteri
        (fun ci _ ->
          Engine.spawn engine (fun () ->
              let next = ref (Engine.time ()) in
              while Engine.time () < t_end do
                let mult =
                  Float.max 1e-6 (Rate.mult_at p ~t:(Engine.time () -. t_start))
                in
                let mean = per_conn /. (l.qps *. mult) in
                next := !next +. Dist.exponential prng ~mean;
                let now = Engine.time () in
                if !next > now then Engine.wait (!next -. now);
                if Engine.time () < t_end then do_request ci
              done))
        conns
  | false, None ->
      (* Closed loop with rate throttling (YCSB-style: one outstanding request
         per connection; late responses eat into the think gap). *)
      let per_conn_mean = float_of_int (Array.length conns) /. l.qps in
      Array.iteri
        (fun ci _ ->
          Engine.spawn engine (fun () ->
              let next = ref (Engine.time ()) in
              while Engine.time () < t_end do
                next := !next +. Dist.exponential gen_rng ~mean:per_conn_mean;
                let now = Engine.time () in
                if !next > now then Engine.wait (!next -. now);
                if Engine.time () < t_end then do_request ci
              done))
        conns);
  (* iperf-style competing stream through the entry machine's NIC. *)
  if net_interference_gbps > 0.0 then begin
    let chunk = 65536 in
    let interval = float_of_int (chunk * 8) /. (net_interference_gbps *. 1e9) in
    Engine.spawn engine (fun () ->
        while Engine.time () < t_end do
          let t0 = Engine.time () in
          Nic.transmit entry.machine.Machine.nic ~bytes:chunk;
          let used = Engine.time () -. t0 in
          if used < interval then Engine.wait (interval -. used)
        done)
  end;
  Engine.run ~until:(t_end +. 0.5) engine;
  List.iter (fun rt -> rt.stopped <- true) rts;
  (* Close spans of requests still in flight at teardown (outcome
     Timeout) and freeze the trees for readers. *)
  (match rq with None -> () | Some c -> Ditto_obs.Reqtrace.finalize c ~at:(Engine.now engine));
  let elapsed = Float.max 1e-9 (Float.min (Engine.now engine) t_end -. t_start) in
  let mbps before now = float_of_int (now - before) /. elapsed /. 1e6 in
  let tiers =
    List.map
      (fun rt ->
        let m = rt.machine in
        let nic_now = Nic.bytes_sent m.Machine.nic + Nic.bytes_received m.Machine.nic in
        let disk_now =
          Ditto_storage.Disk.bytes_read m.Machine.disk
          + Ditto_storage.Disk.bytes_written m.Machine.disk
        in
        let nic_b, disk_b =
          match Hashtbl.find_opt before m.Machine.uid with Some v -> v | None -> (0, 0)
        in
        (* Replicas carry their own machines; fold their odometers (relative
           to the creation snapshot) into the tier's bandwidth totals. *)
        let rep_nic, rep_disk =
          List.fold_left
            (fun (n, d) r ->
              let rm = r.rep_machine in
              let rn =
                Nic.bytes_sent rm.Machine.nic + Nic.bytes_received rm.Machine.nic - r.rep_nic0
              in
              let rd =
                Ditto_storage.Disk.bytes_read rm.Machine.disk
                + Ditto_storage.Disk.bytes_written rm.Machine.disk
                - r.rep_disk0
              in
              (n + rn, d + rd))
            (0, 0) rt.replicas
        in
        List.iter (fun r -> Machine.release r.rep_machine) rt.replicas;
        {
          obs_name = rt.spec.Spec.tier_name;
          obs_latency = Stats.summary rt.lat;
          obs_requests = rt.served;
          obs_net_mbps = mbps nic_b (nic_now + rep_nic);
          obs_disk_mbps = mbps disk_b (disk_now + rep_disk);
          obs_timeouts = rt.timeouts;
          obs_retries = rt.retries;
          obs_shed = rt.shed;
          obs_degraded = rt.degraded;
          obs_failures = rt.failures;
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
  {
    latency = Stats.summary lat;
    latency_raw = Stats.to_array lat;
    achieved_qps = float_of_int !completed /. elapsed;
    completed = !completed;
    errors = !client_errors;
    client_timeouts = !client_timeouts;
    client_retries = !client_retries_used;
    elapsed;
    tiers;
    scale_events = List.rev !(sys.scale_log);
    timeline = tl;
    reqtrace = rq;
  }
