open Ditto_uarch
open Ditto_os

type segment =
  | Cpu of float
  | Disk_read of { bytes : int; random : bool }
  | Disk_write of { bytes : int }
  | Sleep of float
  | Downstream of { target : string; req_bytes : int; resp_bytes : int }

type trace = segment list

type tier_result = {
  tier : Spec.tier;
  space : Layout.space;
  traces : trace array;
  background_trace : trace option;
  counters : Counters.t;
  requests_measured : int;
  cpu_mean : float;
}

let trace_cpu_seconds trace =
  List.fold_left (fun acc seg -> match seg with Cpu s -> acc +. s | _ -> acc) 0.0 trace

type config = {
  warmup : int;
  syscall_scale : float;
  idle_per_request : float;
  interleave : int;
  stressor : (Ditto_util.Rng.t -> int -> Spec.op list) option;
  stressor_placement : [ `Same_core | `Other_core ];
  smt_pressure : float;
}

let default_config =
  {
    warmup = 40;
    syscall_scale = 0.25;
    idle_per_request = 0.0;
    interleave = 4;
    stressor = None;
    stressor_placement = `Same_core;
    smt_pressure = 1.0;
  }

type stream = {
  s_tier : Spec.tier;
  s_space : Layout.space;
  s_cores : int array;
  mutable s_rr : int;
  s_ctr : Counters.t;
  s_rng : Ditto_util.Rng.t;
  mutable s_remaining : int;
  mutable s_req_id : int;
  mutable s_traces : trace list;
}

(* Kernel housekeeping fires ~2000 times per idle second (timer ticks, RCU,
   softirqs), each tick evicting a slice of i-cache and predictor state. *)
let housekeeping_rate = 2000.0

(* Blocks carry mutable stream cursors; reset each block the first time a
   measurement run touches it so that runs are reproducible even for blocks
   shared across runs (memoised kernel paths, reused specs). The table is
   reinitialised at every [run]. It is domain-local: a run executes
   entirely on one domain (Ditto_util.Pool parallelism is across runs,
   never inside one), and each domain runs at most one measurement at a
   time, so per-domain state keeps concurrent runs from clobbering each
   other's touch marks. *)
let touched_key : Bytes.t ref Domain.DLS.key =
  Domain.DLS.new_key (fun () -> ref (Bytes.make 256 '\000'))

let exec_block core ~rng block ~iterations =
  let touched = Domain.DLS.get touched_key in
  let uid = block.Ditto_isa.Block.uid in
  let b = !touched in
  let b =
    (* Uids are a dense process-wide counter, so a byte per block stays
       small; grow geometrically when a new spec pushes past the end. *)
    if uid >= Bytes.length b then begin
      let nb = Bytes.make (max (uid + 1) (2 * Bytes.length b)) '\000' in
      Bytes.blit b 0 nb 0 (Bytes.length b);
      touched := nb;
      nb
    end
    else b
  in
  if Bytes.unsafe_get b uid = '\000' then begin
    Bytes.unsafe_set b uid '\001';
    Ditto_isa.Block.reset_state block
  end;
  Core_model.exec_block core ~rng block ~iterations

let exec_kernel cfg core rng kind =
  List.iter
    (fun (block, iterations) -> exec_block core ~rng block ~iterations)
    (Syscall.Kernel.streams ~scale:cfg.syscall_scale kind)

let run_housekeeping cfg (machine : Machine.t) core_id rng scratch =
  if cfg.idle_per_request > 0.0 then begin
    Memory.set_counter machine.Machine.mem core_id scratch;
    (* Periodic ticks plus a wake-from-idle component: once the gap exceeds
       ~50us the core enters idle and every request pays a cold-ish
       frontend on wakeup. *)
    let expected =
      (cfg.idle_per_request *. housekeeping_rate)
      +. Float.min 1.0 (cfg.idle_per_request /. 50e-6)
    in
    let ticks =
      int_of_float expected
      + (if Ditto_util.Rng.float rng 1.0 < Float.rem expected 1.0 then 1 else 0)
    in
    let block, iterations = Syscall.Kernel.housekeeping ~scale:cfg.syscall_scale () in
    let core = machine.Machine.cores.(core_id) in
    for _ = 1 to (if ticks < 64 then ticks else 64) do
      exec_block core ~rng block ~iterations
    done
  end

(* Execute one request of [stream] on its next core, attributing counters to
   [ctr], and return the request's segment trace.

   [profile] additionally samples the executing (tier -> handler phase ->
   block/syscall) stack into Ditto_obs.Profiler: every unit of work is
   followed by an attribution of the counter's cycle delta, so sampled
   weights cover exactly the cycles that [flush_cpu] turns into Cpu
   segments. Warmup requests pass [profile:false]. *)
let run_request ?(profile = false) cfg (machine : Machine.t) stream ctr =
  let core_id = stream.s_cores.(stream.s_rr mod Array.length stream.s_cores) in
  stream.s_rr <- stream.s_rr + 1;
  let core = machine.Machine.cores.(core_id) in
  let rng = stream.s_rng in
  Memory.set_counter machine.Machine.mem core_id ctr;
  let segs = ref [] in
  let last_flush = ref (Counters.cycles ctr) in
  let flush_cpu () =
    let c = Counters.cycles ctr in
    if c > !last_flush then
      segs := Cpu (Machine.cycles_to_seconds machine (c -. !last_flush)) :: !segs;
    last_flush := c
  in
  let tier_name = stream.s_tier.Spec.tier_name in
  let phase = ref "recv" in
  let last_prof = ref (Counters.cycles ctr) in
  let prof frame =
    if profile then begin
      let c = Counters.cycles ctr in
      Ditto_obs.Profiler.record ~stack:[ tier_name; !phase; frame ] ~cycles:(c -. !last_prof);
      last_prof := c
    end
  in
  let kernel kind =
    exec_kernel cfg core rng kind;
    (* Build the frame label only when profiling: this runs per syscall. *)
    if profile then prof ("syscall:" ^ Syscall.name kind)
  in
  let interp op =
    match op with
    | Spec.Compute (block, iterations) ->
        exec_block core ~rng block ~iterations;
        prof block.Ditto_isa.Block.label
    | Spec.Syscall (Syscall.Nanosleep { seconds } as k) ->
        kernel k;
        flush_cpu ();
        segs := Sleep seconds :: !segs
    | Spec.Syscall k -> kernel k
    | Spec.File_read { offset; bytes; random } ->
        kernel (Syscall.Pread { bytes; random });
        let missed =
          Page_cache.read machine.Machine.page_cache ~offset ~bytes
        in
        if missed > 0 then begin
          flush_cpu ();
          segs := Disk_read { bytes = missed; random } :: !segs
        end
    | Spec.File_write { bytes } ->
        kernel (Syscall.Pwrite { bytes });
        flush_cpu ();
        segs := Disk_write { bytes } :: !segs
    | Spec.Call { target; req_bytes; resp_bytes } ->
        kernel (Syscall.Sock_write { bytes = req_bytes });
        flush_cpu ();
        segs := Downstream { target; req_bytes; resp_bytes } :: !segs;
        kernel (Syscall.Sock_read { bytes = resp_bytes })
  in
  (* Server skeleton around the body: the network model determines the
     kernel work paid per request (§4.3.1) — epoll wakeups for
     I/O-multiplexing servers, a bare blocking read for thread-per-
     connection ones, and wasted polling probes for non-blocking ones. *)
  (match stream.s_tier.Spec.server_model with
  | Spec.Io_multiplexing -> kernel Syscall.Epoll_wait
  | Spec.Blocking -> ()
  | Spec.Nonblocking ->
      (* several empty probes precede the successful read at typical loads *)
      kernel Syscall.Gettime;
      kernel Syscall.Gettime;
      kernel Syscall.Gettime);
  kernel (Syscall.Sock_read { bytes = stream.s_tier.Spec.request_bytes });
  phase := "handler";
  let ops = stream.s_tier.Spec.handler rng stream.s_req_id in
  stream.s_req_id <- stream.s_req_id + 1;
  List.iter interp ops;
  phase := "send";
  kernel (Syscall.Sock_write { bytes = stream.s_tier.Spec.response_bytes });
  Core_model.drain core;
  prof "drain";
  flush_cpu ();
  (core_id, List.rev !segs)

let run_stressor cfg (machine : Machine.t) rng scratch core_id seq =
  match cfg.stressor with
  | None -> ()
  | Some gen ->
      let ncores = Machine.ncores machine in
      let core_id =
        match cfg.stressor_placement with
        | `Same_core -> core_id
        | `Other_core -> (core_id + (ncores / 2) + 1) mod ncores
      in
      Memory.set_counter machine.Machine.mem core_id scratch;
      let core = machine.Machine.cores.(core_id) in
      List.iter
        (fun op ->
          match op with
          | Spec.Compute (block, iterations) -> exec_block core ~rng block ~iterations
          | Spec.Syscall _ | Spec.File_read _ | Spec.File_write _ | Spec.Call _ -> ())
        (gen rng seq)

(* A tier occupies as many cores as it has worker threads (a one-worker
   Redis runs hot on one core; spreading it over a whole socket would keep
   every predictor and private cache cold). *)
let assign_cores ~ncores ~ntiers ~workers idx =
  if ntiers <= ncores then begin
    let count = max 1 (min (max 1 workers) (ncores / ntiers)) in
    Array.init count (fun k -> idx + (k * ntiers))
  end
  else [| idx mod ncores |]

let measure_background cfg machine stream =
  match stream.s_tier.Spec.background_handler with
  | None -> None
  | Some bg ->
      let core_id = stream.s_cores.(0) in
      let core = machine.Machine.cores.(core_id) in
      let rng = stream.s_rng in
      Memory.set_counter machine.Machine.mem core_id stream.s_ctr;
      let ctr = stream.s_ctr in
      let segs = ref [] in
      let last_flush = ref (Counters.cycles ctr) in
      let flush_cpu () =
        let c = Counters.cycles ctr in
        if c > !last_flush then
          segs := Cpu (Machine.cycles_to_seconds machine (c -. !last_flush)) :: !segs;
        last_flush := c
      in
      let profile = Ditto_obs.Profiler.enabled () in
      let tier_name = stream.s_tier.Spec.tier_name in
      let last_prof = ref (Counters.cycles ctr) in
      let prof frame =
        if profile then begin
          let c = Counters.cycles ctr in
          Ditto_obs.Profiler.record
            ~stack:[ tier_name; "background"; frame ]
            ~cycles:(c -. !last_prof);
          last_prof := c
        end
      in
      let kernel kind =
        exec_kernel cfg core rng kind;
        if profile then prof ("syscall:" ^ Syscall.name kind)
      in
      List.iter
        (fun op ->
          match op with
          | Spec.Compute (block, iterations) ->
              exec_block core ~rng block ~iterations;
              prof block.Ditto_isa.Block.label
          | Spec.Syscall (Syscall.Nanosleep { seconds }) ->
              flush_cpu ();
              segs := Sleep seconds :: !segs
          | Spec.Syscall k -> kernel k
          | Spec.File_read { offset; bytes; random } ->
              kernel (Syscall.Pread { bytes; random });
              let missed = Page_cache.read machine.Machine.page_cache ~offset ~bytes in
              if missed > 0 then begin
                flush_cpu ();
                segs := Disk_read { bytes = missed; random } :: !segs
              end
          | Spec.File_write { bytes } ->
              kernel (Syscall.Pwrite { bytes });
              flush_cpu ();
              segs := Disk_write { bytes } :: !segs
          | Spec.Call { target; req_bytes; resp_bytes } ->
              flush_cpu ();
              segs := Downstream { target; req_bytes; resp_bytes } :: !segs)
        (bg rng);
      Core_model.drain core;
      prof "drain";
      flush_cpu ();
      Some (List.rev !segs)

let run ?(config = default_config) ~(machine : Machine.t) ~seed ~requests tiers =
  (let t = Domain.DLS.get touched_key in
   Bytes.fill !t 0 (Bytes.length !t) '\000');
  let profile = Ditto_obs.Profiler.enabled () in
  if profile then Ditto_obs.Profiler.set_scale (Machine.cycles_to_seconds machine 1.0);
  let cfg = config in
  let ncores = Machine.ncores machine in
  let ntiers = List.length tiers in
  if ntiers = 0 then invalid_arg "Measure.run: no tiers";
  Array.iter
    (fun core -> Core_model.set_width_factor core cfg.smt_pressure)
    machine.Machine.cores;
  let root = Ditto_util.Rng.create seed in
  let scratch = Counters.create () in
  let stress_rng = Ditto_util.Rng.split root in
  let streams =
    List.mapi
      (fun idx (tier, space) ->
        {
          s_tier = tier;
          s_space = space;
          s_cores =
            assign_cores ~ncores ~ntiers ~workers:tier.Spec.thread_model.Spec.workers idx;
          s_rr = 0;
          s_ctr = Counters.create ();
          s_rng = Ditto_util.Rng.split root;
          s_remaining = requests;
          s_req_id = 0;
          s_traces = [];
        })
      tiers
  in
  (* Bring the page cache to steady state: a long-running service has it
     full. Each hosted tier's file is read once from offset 0, so under LRU
     the cache ends up holding the last [capacity] pages read: the tail of
     the last file, plus the tails of earlier ones when that file is
     smaller than the cache. Under uniform access any [capacity] resident
     pages give the steady-state hit ratio. Page ids are machine-wide file
     offsets, so the files of co-located tiers alias one another
     (DESIGN.md §10). *)
  List.iter
    (fun (tier, _) ->
      let file = tier.Spec.file_bytes in
      if file > 0 then
        ignore
          (Page_cache.read machine.Machine.page_cache ~offset:0 ~bytes:file))
    tiers;
  (* Warmup: fill caches, predictor and page cache; nothing recorded. *)
  List.iter
    (fun stream ->
      for _ = 1 to cfg.warmup do
        ignore (run_request cfg machine stream scratch)
      done)
    streams;
  (* Measurement: interleave tiers (and the stressor) over the cores. *)
  let stress_seq = ref 0 in
  let remaining () = List.exists (fun s -> s.s_remaining > 0) streams in
  while remaining () do
    List.iter
      (fun stream ->
        let burst =
          if cfg.interleave < stream.s_remaining then cfg.interleave else stream.s_remaining
        in
        for _ = 1 to burst do
          let core_id0 = stream.s_cores.(stream.s_rr mod Array.length stream.s_cores) in
          run_housekeeping cfg machine core_id0 stream.s_rng scratch;
          let core_id, trace = run_request ~profile cfg machine stream stream.s_ctr in
          stream.s_traces <- trace :: stream.s_traces;
          stream.s_remaining <- stream.s_remaining - 1;
          incr stress_seq;
          run_stressor cfg machine stress_rng scratch core_id !stress_seq
        done)
      streams
  done;
  List.map
    (fun stream ->
      let traces = Array.of_list (List.rev stream.s_traces) in
      let background_trace = measure_background cfg machine stream in
      let cpu_mean =
        if Array.length traces = 0 then 0.0
        else
          Array.fold_left (fun acc tr -> acc +. trace_cpu_seconds tr) 0.0 traces
          /. float_of_int (Array.length traces)
      in
      {
        tier = stream.s_tier;
        space = stream.s_space;
        traces;
        background_trace;
        counters = stream.s_ctr;
        requests_measured = Array.length traces;
        cpu_mean;
      })
    streams
