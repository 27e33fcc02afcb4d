(* The performance-architecture layer: machine pooling, the engine's
   immediate-event fast path and the allocation-free measurement path.
   Every fast path is pinned bit-identical to its cold equivalent: it may
   only change wall-clock time, never a counter. Nothing caches a run's
   result, so a repeated run re-simulates; the runner pins below show that
   it reproduces the earlier run exactly, which is what lets the bench
   harness hand a run it already holds to a later experiment. *)

open Ditto_app
module Platform = Ditto_uarch.Platform
module Engine = Ditto_sim.Engine
module Pool = Ditto_util.Pool

(* {1 Runner: repeated runs on pooled machines} *)

let small_load = Service.load ~qps:15000.0 ~open_loop:false ~duration:0.15 ()

(* Two consecutive runs of the same spec: the second reuses pooled machines
   and re-measures, and must still be byte-identical. *)
let test_warm_rerun_identical () =
  let app = Ditto_apps.Redis.spec () in
  let cfg = Runner.config ~requests:40 Platform.a in
  let o1 = Runner.run cfg ~load:small_load app in
  let o2 = Runner.run cfg ~load:small_load app in
  Alcotest.(check bool) "per-tier metrics identical" true (o1.Runner.per_tier = o2.Runner.per_tier);
  Alcotest.(check bool) "end-to-end identical" true (o1.Runner.end_to_end = o2.Runner.end_to_end)

(* [Pipeline.clone] runs the original once, as the clone's [reference]. A
   later validation at the same platform, load and runner config must
   return exactly that run on the original's side, even after unrelated
   work has reused this domain's pooled machines and moved its kernel-path
   and stressor block cursors. The bench harness relies on this when it
   pairs the reference with a stored run of the clone instead of
   validating again. *)
let test_clone_reference_is_validation () =
  let pool = Pool.create ~size:1 () in
  Fun.protect ~finally:(fun () -> Pool.shutdown pool) @@ fun () ->
  let module Pipeline = Ditto_core.Pipeline in
  let result =
    Pipeline.clone ~pool ~tune:false ~requests:60 ~profile_requests:40 ~platform:Platform.a
      ~load:small_load (Ditto_apps.Redis.spec ())
  in
  ignore
    (Runner.run
       (Runner.config ~requests:30 ~stressor:Ditto_apps.Stressors.l1d Platform.a)
       ~load:small_load (Ditto_apps.Memcached.spec ()));
  let c =
    Pipeline.validate ~pool ~config_of:(Runner.config ~requests:60) ~platform:Platform.a
      ~load:small_load ~label:"again" result
  in
  let reference = result.Pipeline.reference in
  let check what ok = Alcotest.(check bool) what true ok in
  check "actual per-tier" (c.Pipeline.actual = reference.Runner.per_tier);
  check "actual end-to-end" (c.Pipeline.actual_end_to_end = reference.Runner.end_to_end);
  check "actual raw latencies"
    (c.Pipeline.actual_raw = reference.Runner.service.Service.latency_raw);
  check "actual service" (c.Pipeline.actual_service = reference.Runner.service);
  let fresh =
    Runner.run (Runner.config ~requests:60 Platform.a) ~load:small_load result.Pipeline.synthetic
  in
  check "synthetic per-tier" (c.Pipeline.synthetic = fresh.Runner.per_tier)

(* {1 Engine: immediate-event fast path}

   Events scheduled at or before the current time take the FIFO side queue
   instead of the heap; dispatch order must equal the pure-heap schedule
   (insertion order among same-time events, earliest-time first against
   the heap). *)
let test_engine_zero_delay_fifo () =
  let e = Engine.create () in
  let log = ref [] in
  let emit tag = log := tag :: !log in
  let proc name =
    emit (name ^ "0");
    Engine.wait 0.0;
    emit (name ^ "1");
    Engine.wait 1e-6;
    emit (name ^ "2")
  in
  Engine.spawn e (fun () -> proc "a");
  Engine.spawn e (fun () -> proc "b");
  Engine.run e;
  Alcotest.(check (list string))
    "insertion-order dispatch at equal times"
    [ "a0"; "b0"; "a1"; "b1"; "a2"; "b2" ]
    (List.rev !log)

let test_engine_imm_vs_heap_priority () =
  (* An immediate event must still yield to an earlier-scheduled heap event
     at the same timestamp (the (time, seq) order of the plain heap). *)
  let e = Engine.create () in
  let log = ref [] in
  Engine.spawn e ~at:1e-3 (fun () -> log := "heap" :: !log);
  Engine.spawn e (fun () ->
      Engine.wait 1e-3;
      log := "imm" :: !log);
  Engine.run e;
  Alcotest.(check (list string)) "heap event first at the tie" [ "heap"; "imm" ] (List.rev !log)

(* {1 Allocation-free measurement path}

   Once warm, the measurement layer's per-instruction path — core model,
   cache hierarchy, TLBs, coherence directory, RNG draws — and the page
   cache allocate nothing: no boxed float, closure, tuple or ref. The pins
   count minor-heap words around a call, so any such regression shows up
   as a non-zero delta. *)

module Block = Ditto_isa.Block
module Core_model = Ditto_uarch.Core_model
module Counters = Ditto_uarch.Counters

let minor_words f =
  let before = Gc.minor_words () in
  f ();
  Gc.minor_words () -. before

let mixed_block () =
  let by_name = Ditto_isa.Iform.by_name in
  let priv = Block.make_region ~base:0x10000000 ~bytes:(1 lsl 24) ~shared:false in
  let shared = Block.make_region ~base:0x20000000 ~bytes:(1 lsl 16) ~shared:true in
  let alu i = Block.temp (by_name "ADD_GPR64_GPR64") ~dst:(i mod 8) ~srcs:[| (i + 1) mod 8 |] in
  let load dst mem = Block.temp (by_name "MOV_GPR64_MEM") ~dst ~mem in
  Block.make ~label:"alloc-pin" ~code_base:0x100000
    [
      alu 0;
      load 1 (Block.Rand_uniform { region = priv; start = 0; span = 1 lsl 24 });
      alu 1;
      load 2 (Block.Seq_stride { region = priv; start = 0; stride = 64; span = 1 lsl 20 });
      load 3 (Block.Chase { region = priv; start = 1 lsl 22; span = 1 lsl 22 });
      alu 2;
      Block.temp (by_name "MOV_MEM_GPR64") ~srcs:[| 2 |]
        ~mem:(Block.Seq_stride { region = shared; start = 0; stride = 64; span = 1 lsl 12 });
      Block.temp (by_name "LOCK_ADD_MEM_GPR64") ~srcs:[| 3 |]
        ~mem:(Block.Fixed_offset { region = shared; offset = 128 });
      Block.temp (by_name "REP_MOVSB") ~srcs:[| 4 |] ~rep_count:256
        ~mem:(Block.Seq_stride { region = priv; start = 1 lsl 23; stride = 256; span = 1 lsl 16 });
      Block.temp (by_name "JNZ_REL") ~branch:{ Block.m = 1; n = 2; invert = false };
      Block.temp (by_name "IDIV_GPR64") ~dst:5 ~srcs:[| 5; 6 |];
    ]

(* Two cores run the block in turn, so core 0's shared accesses find lines
   core 1 left dirty and take the coherence path. [last] runs core 0's
   final, warm call; the result is (core 0, core 1). *)
let mixed_sequence ~last =
  let mem = Ditto_uarch.Memory.create Platform.a ~ncores:2 in
  let core = Core_model.create mem ~core:0 and other = Core_model.create mem ~core:1 in
  let rng = Ditto_util.Rng.create 7 in
  let block = mixed_block () in
  Core_model.exec_block other ~rng block ~iterations:20;
  Core_model.exec_block core ~rng block ~iterations:20;
  Core_model.exec_block other ~rng block ~iterations:20;
  last (fun () -> Core_model.exec_block core ~rng block ~iterations:50);
  (core, other)

let test_exec_block_allocation_free () =
  let words = ref nan in
  let core, _ = mixed_sequence ~last:(fun run -> words := minor_words run) in
  Alcotest.(check (float 0.0)) "exec_block minor words" 0.0 !words;
  Alcotest.(check bool) "the coherence path ran" true
    ((Core_model.counters core).Counters.coherence_misses > 0)

(* Each of 2,000 pages twice in a row: more pages than the STLB holds, so
   the first access walks and the second hits. *)
let test_tlb_allocation_free () =
  let tlb = Ditto_uarch.Tlb.create () in
  let sweep () =
    for i = 0 to 3999 do
      ignore (Ditto_uarch.Tlb.access tlb (i / 2 * 7 * Ditto_uarch.Tlb.page_bytes))
    done
  in
  sweep ();
  let walks = Ditto_uarch.Tlb.misses tlb in
  Alcotest.(check (float 0.0)) "Tlb.access minor words" 0.0 (minor_words sweep);
  Alcotest.(check bool) "walks and hits both taken" true
    (Ditto_uarch.Tlb.misses tlb > walks && Ditto_uarch.Tlb.misses tlb < Ditto_uarch.Tlb.lookups tlb)

let test_page_cache_allocation_free () =
  let module Page_cache = Ditto_os.Page_cache in
  let page = Page_cache.page_bytes in
  let pc = Page_cache.create ~capacity_bytes:(64 * page) in
  (* Fill past capacity first, so the index and slot arrays are grown. *)
  ignore (Page_cache.read pc ~offset:0 ~bytes:(128 * page));
  let missed = ref 0 in
  let resident () =
    for _ = 1 to 100 do
      missed := !missed + Page_cache.read pc ~offset:(100 * page) ~bytes:(8 * page)
    done
  in
  Alcotest.(check (float 0.0)) "resident reads" 0.0 (minor_words resident);
  Alcotest.(check int) "resident pages hit" 0 !missed;
  let evicting () =
    for k = 0 to 99 do
      missed := !missed + Page_cache.read pc ~offset:(k mod 16 * 8 * page) ~bytes:(8 * page)
    done
  in
  Alcotest.(check (float 0.0)) "evicting reads" 0.0 (minor_words evicting);
  Alcotest.(check bool) "evicting pages missed" true (!missed > 0)

(* {2 The serving path's fault reads and the teardown's order statistics}

   A tier's fault handle and a healthy link's [Deliver] verdict are field
   reads, taken per request, worker poll, CPU segment and message.
   [Stats.summary] sorts its samples with a radix sort over the unboxed
   floats: at this size its buffer (one float per sample) and its counters
   go to the major heap, so only the result record and its boxed fields
   reach the minor heap. [Array.sort compare] boxed both floats of every
   comparison, about 2.9 M words for these 30,000 samples. Each pin's
   first call is the one measured: nothing here is warmed. *)

module Stats = Ditto_util.Stats
module Injector = Ditto_fault.Injector
module Plan = Ditto_fault.Plan

let test_summary_words () =
  let rng = Ditto_util.Rng.create 3 in
  let s = Stats.create () in
  for _ = 1 to 30_000 do
    Stats.add s (1e-4 +. Ditto_util.Rng.float rng 0.05)
  done;
  let words = minor_words (fun () -> ignore (Stats.summary s)) in
  Alcotest.(check bool)
    (Printf.sprintf "Stats.summary of 30,000 samples: %.0f minor words, below 100" words)
    true (words < 100.0)

(* Read inside a crash and a slowdown of tier [a], so the handle's state
   is not its initial one; the link joins two healthy tiers. *)
let test_fault_read_words () =
  let engine = Engine.create () in
  let plan =
    Plan.make ~name:"pin"
      [
        { Plan.at = 0.1; tier = "a"; kind = Plan.Crash { down_for = 0.1 } };
        { Plan.at = 0.1; tier = "a"; kind = Plan.Slowdown { factor = 2.0; lasts = 0.1 } };
      ]
  in
  let inj = Injector.create ~engine ~seed:1 plan in
  let a = Injector.tier inj "a" in
  let link = Injector.disruptor inj ~src:"b" ~dst:Plan.client_tier in
  Injector.arm inj ~at:0.0;
  let read_words = ref nan and deliver_words = ref nan in
  let down = ref 0 and delivered = ref 0 in
  Engine.schedule engine 0.15 (fun () ->
      read_words :=
        minor_words (fun () ->
            for _ = 1 to 1000 do
              if (not (Injector.up a)) && Injector.slow a = 2.0 then incr down
            done);
      deliver_words :=
        minor_words (fun () ->
            for _ = 1 to 1000 do
              match link ~bytes:64 with Ditto_net.Socket.Deliver -> incr delivered | _ -> ()
            done));
  Engine.run engine;
  Alcotest.(check (float 0.0)) "Injector.up and Injector.slow minor words" 0.0 !read_words;
  Alcotest.(check int) "the handle read the crash and the slowdown" 1000 !down;
  Alcotest.(check (float 0.0)) "Deliver verdict minor words" 0.0 !deliver_words;
  Alcotest.(check int) "every message delivered" 1000 !delivered

(* {1 Golden pin: the measurement layer's output across commits}

   Every other determinism pin compares two runs of one binary, so a
   rewrite of the core model or the hierarchy that changes results would
   still pass them. These digests are constants: they may change only in
   a change that means to move counters, which records the new values and
   says so. Floats enter as [%h], so a one-ulp drift shows. *)

let counters_fingerprint (c : Counters.t) =
  let s = c.Counters.s in
  Printf.sprintf
    "%d %d %d %d %d %d %d %d %d %d %d %d %d %d %d %d %d %d|%h %h %h %h %h"
    c.Counters.insts c.Counters.uops c.Counters.branches c.Counters.mispredicts
    c.Counters.btb_misses c.Counters.itlb_misses c.Counters.dtlb_misses c.Counters.l1i_accesses
    c.Counters.l1i_misses c.Counters.l1d_accesses c.Counters.l1d_misses c.Counters.l2_accesses
    c.Counters.l2_misses c.Counters.llc_accesses c.Counters.llc_misses
    c.Counters.coherence_misses c.Counters.bytes_read c.Counters.bytes_written s.Counters.cycles
    s.Counters.retiring s.Counters.frontend s.Counters.bad_spec s.Counters.backend

let digest parts = Digest.to_hex (Digest.string (String.concat "\n" parts))

(* The [alloc] group's sequence: both cores' counters and clocks. *)
let test_golden_exec_block () =
  let core, other = mixed_sequence ~last:(fun run -> run ()) in
  let part c =
    Printf.sprintf "%s now=%h" (counters_fingerprint (Core_model.counters c)) (Core_model.now c)
  in
  Alcotest.(check string)
    "mixed_block digest" "81ce8ed9d1744551ff6e3432ae6c7b4c"
    (digest [ part core; part other ])

(* A whole redis run at its medium load: every tier's counters and the
   on-CPU time of every measured segment. *)
let test_golden_runner () =
  let entry = Ditto_apps.Registry.by_name "redis" in
  let _, med, _ = entry.Ditto_apps.Registry.loads in
  let load =
    Ditto_loadgen.Workload.to_load entry.Ditto_apps.Registry.workload ~qps:med ~duration:0.15 ()
  in
  let o =
    Runner.run
      (Runner.config ~requests:40 ~seed:42 Platform.a)
      ~load
      (entry.Ditto_apps.Registry.spec ())
  in
  let tiers =
    List.map
      (fun (name, m) -> name ^ " " ^ counters_fingerprint m.Metrics.counters)
      o.Runner.per_tier
  in
  let segments =
    List.concat_map
      (fun (name, r) ->
        Array.to_list r.Measure.traces
        @ Option.to_list r.Measure.background_trace
        |> List.map (fun trace ->
               name ^ ":"
               ^ String.concat ","
                   (List.filter_map
                      (function Measure.Cpu s -> Some (Printf.sprintf "%h" s) | _ -> None)
                      trace)))
      o.Runner.measured
  in
  Alcotest.(check string)
    "redis medium-load digest" "4e5b3697b42072cde4b3adbbcf294bb2"
    (digest (tiers @ segments))

(* {2 The serving phase: routing, replicas and bandwidth}

   Every field of [Service.result] over five runs. A two-tier app under an
   8x flash crowd whose front scales out, drains and reactivates a
   replica; memcached under a mid-run crash plus a flash crowd, shedding
   and scaling out; and hotel_reservation, whose eleven tiers share one
   machine, so its RPCs take loopback and its tiers share NIC and disk
   odometers. Clients open connections at start-up and re-open one only
   after a timeout, so in those runs no connection reaches a replica. The
   fourth run crashes the two-tier app's front three times: its clients
   time out and re-open connections after the scale-out, after a drain
   and after a reactivation, so replicas serve, and the choice of which
   replica drains, which one comes back and where the routing cursor
   stands all move the digest. The fifth is memcached at its high load
   under a constant-rate open loop, where thousands of requests wait on
   their connections at once; its digest adds the sampled span trees,
   which requests are sampled being decided by the order they start in. *)

let des_block ~tier_index ~label n =
  let space = Layout.space ~tier_index ~heap_bytes:(1 lsl 20) ~shared_bytes:(1 lsl 16) in
  Block.make ~label ~code_base:(Layout.code_window space ~index:0)
    (List.init n (fun i ->
         Block.temp (Ditto_isa.Iform.by_name "ADD_GPR64_GPR64") ~dst:(i mod 8)
           ~srcs:[| (i + 1) mod 8 |]))

(* The back tier holds a worker ~150 us per request, so the crowd on a
   3k base is past its capacity and the front's accept queue grows. *)
let des_surge_app ?front_model () =
  let front_block = des_block ~tier_index:0 ~label:"front" 64 in
  let back_block = des_block ~tier_index:1 ~label:"back" 96 in
  let front _rng _req =
    [
      Spec.Compute (front_block, 3);
      Spec.Call { target = "back"; req_bytes = 128; resp_bytes = 256 };
      Spec.Compute (front_block, 2);
    ]
  in
  let back _rng _req =
    [
      Spec.Compute (back_block, 4);
      Spec.Syscall (Ditto_os.Syscall.Nanosleep { seconds = 1.5e-4 });
    ]
  in
  Spec.make ~name:"surge_app"
    [
      Spec.tier ~name:"front" ?server_model:front_model ~workers:2 ~heap_bytes:(1 lsl 20)
        ~shared_bytes:(1 lsl 16) ~handler:front ();
      Spec.tier ~name:"back" ~workers:2 ~heap_bytes:(1 lsl 20) ~shared_bytes:(1 lsl 16)
        ~handler:back ();
    ]

let summary_part (s : Ditto_util.Stats.summary) =
  Printf.sprintf "%d %h %h %h %h %h %h %h" s.count s.mean s.std s.min s.max s.p50 s.p95 s.p99

let service_parts (r : Service.result) =
  Printf.sprintf "%d %d %d %d %h %h %s" r.Service.completed r.errors r.client_timeouts
    r.client_retries r.achieved_qps r.elapsed (summary_part r.latency)
  :: String.concat " " (Array.to_list (Array.map (Printf.sprintf "%h") r.latency_raw))
  :: List.map
       (fun (e : Service.scale_event) ->
         Printf.sprintf "scale %h %s %d->%d" e.se_at e.se_tier e.se_from e.se_to)
       r.scale_events
  @ List.map
      (fun (o : Service.tier_obs) ->
        Printf.sprintf "%s %s %d %h %h %d %d %d %d %d %d %d %d" o.obs_name
          (summary_part o.obs_latency) o.obs_requests o.obs_net_mbps o.obs_disk_mbps
          o.obs_timeouts o.obs_retries o.obs_shed o.obs_degraded o.obs_failures o.obs_replicas
          o.obs_breaker_transitions o.obs_link_drops)
      r.tiers

let des_medium name ~duration =
  let entry = Ditto_apps.Registry.by_name name in
  let _, med, _ = entry.Ditto_apps.Registry.loads in
  ( entry.Ditto_apps.Registry.spec (),
    Ditto_loadgen.Workload.to_load entry.Ditto_apps.Registry.workload ~qps:med ~duration () )

let serve cfg load app = (Runner.run cfg ~load app).Runner.service

(* Run (a): the two-tier app under its flash crowd, scaling its front out.
   [recorded] turns on both recorders (timeline and request trace). *)
let surge_app ?fault_plan ?(recorded = false) ?front_model
    ?(resilience = Spec.resilient ~queue_bound:16 ()) () =
  let policy =
    Spec.autoscale ~min_replicas:1 ~max_replicas:3 ~target_queue:4.0 ~interval:0.02
      ~cooldown:0.04 ()
  in
  serve
    (Runner.config ~requests:40 ?fault_plan ~timeline:recorded ~reqtrace:recorded Platform.a)
    (Service.load ~qps:3000.0 ~duration:2.0 ~open_loop:true ~client_timeout:0.02
       ~client_retries:1
       ~profile:(Ditto_loadgen.Profile.flash_crowd ~mult:8.0 ~duration:2.0 ())
       ())
    (Spec.with_autoscale policy (Spec.with_resilience resilience (des_surge_app ?front_model ())))

(* Run (b): memcached under kill-mid-tier plus a flash crowd. *)
let memcached_surge ?(recorded = false) () =
  let duration = 0.15 in
  let spec, load = des_medium "memcached" ~duration in
  let tiers = List.map (fun (t : Spec.tier) -> t.Spec.tier_name) spec.Spec.tiers in
  serve
    (Runner.config ~requests:40 ~seed:42
       ~fault_plan:(Ditto_fault.Plan.kill_mid_tier ~duration ~tiers ())
       ~timeline:recorded ~reqtrace:recorded Platform.a)
    {
      load with
      Service.client_timeout = Some 0.03;
      client_retries = 1;
      profile = Some (Ditto_loadgen.Profile.flash_crowd ~duration ());
    }
    (Spec.with_autoscale (Spec.autoscale ~max_replicas:4 ())
       (Spec.with_resilience (Spec.resilient ~queue_bound:48 ()) spec))

let test_golden_service () =
  let module Plan = Ditto_fault.Plan in
  (* The runs share the process's kernel-path memo, so they run in this
     order. *)
  let surged = surge_app () in
  let memcached = memcached_surge () in
  let hotel =
    let spec, load = des_medium "hotel_reservation" ~duration:0.15 in
    serve (Runner.config ~requests:20 ~seed:42 Platform.a) load spec
  in
  let crashed =
    surge_app
      ~fault_plan:
        (Plan.make ~name:"front-crashes"
           (List.map
              (fun (at, down_for) -> { Plan.at; tier = "front"; kind = Plan.Crash { down_for } })
              [ (0.8, 0.05); (1.78, 0.02); (1.95, 0.02) ]))
      ()
  in
  let queued =
    let entry = Ditto_apps.Registry.by_name "memcached" in
    let _, _, high = entry.Ditto_apps.Registry.loads in
    let load =
      Ditto_loadgen.Workload.to_load entry.Ditto_apps.Registry.workload ~qps:high ~duration:0.15
        ()
    in
    serve
      (Runner.config ~requests:40 ~seed:42 ~reqtrace:true Platform.a)
      load
      (entry.Ditto_apps.Registry.spec ())
  in
  let jaeger (r : Service.result) =
    match r.Service.reqtrace with
    | Some c -> Ditto_util.Jsonx.to_string (Ditto_obs.Reqtrace.jaeger c)
    | None -> Alcotest.fail "reqtrace run returned no trace collector"
  in
  List.iter
    (fun (what, expected, parts) ->
      Alcotest.(check string) (what ^ " service digest") expected (digest parts))
    [
      ("surge_app", "6365dbdd598bf7941a63647ebf1d2979", service_parts surged);
      ("memcached surge", "645efebfc38b0404333669aca36da981", service_parts memcached);
      ("hotel_reservation", "79f87181c7798e812e7b134537756b36", service_parts hotel);
      ("surge_app front crashes", "a5e876deda59dfbfd90d50861874b304", service_parts crashed);
      ( "memcached high load",
        "f4878190f4aefe907b9ec027e7399a9b",
        service_parts queued @ [ jaeger queued ] );
    ]

(* {2 What the recorders export}

   Runs (a) and (b) again with both recorders on: their service results
   must still match [service results], and each digest pins the run's
   OpenMetrics text, Chrome counter events and Jaeger JSON. Two more runs
   reach what no other digest does, each pinning every [Service.result]
   field plus the three exports: the two-tier app with a non-blocking
   front, whose workers poll their connections, and the same app serving
   degraded once two requests per replica wait. They run after [service
   results], whose runs warmed the kernel-path memo. *)
let exports (r : Service.result) =
  match (r.Service.timeline, r.Service.reqtrace) with
  | Some ts, Some rq ->
      let module Ts = Ditto_obs.Timeseries in
      let module J = Ditto_util.Jsonx in
      [
        Ts.to_openmetrics ts;
        J.to_string (J.List (Ts.chrome_events ~process_name:"golden" ts));
        J.to_string (Ditto_obs.Reqtrace.jaeger rq);
      ]
  | _ -> Alcotest.fail "a recorded run returned no collector"

let test_golden_exports () =
  let surged = surge_app ~recorded:true () in
  let memcached = memcached_surge ~recorded:true () in
  let polled = surge_app ~recorded:true ~front_model:Spec.Nonblocking () in
  let degraded =
    surge_app ~recorded:true
      ~resilience:(Spec.resilient ~queue_bound:64 ~degrade:(Spec.degraded ~queue:2 ()) ())
      ()
  in
  List.iter
    (fun (what, expected, parts) ->
      Alcotest.(check string) (what ^ " digest") expected (digest parts))
    [
      ("surge_app service", "6365dbdd598bf7941a63647ebf1d2979", service_parts surged);
      ("memcached surge service", "645efebfc38b0404333669aca36da981", service_parts memcached);
      ("surge_app exports", "d2a6ce522395c5a9e936806ebf65c48d", exports surged);
      ("memcached surge exports", "dd4d22d495decc20038a1e60cc7ebe61", exports memcached);
      ( "non-blocking front",
        "81d3ec9d4c96d8fc3b350ef0ec17db07",
        service_parts polled @ exports polled );
      ( "degraded front",
        "0461798ed96e33a61b8a3557bf46707e",
        service_parts degraded @ exports degraded );
    ]

(* {2 Clone construction: profiles and generated code}

   Profiling and generation draw from seeded RNGs; a reordered or extra
   draw changes every later sample, which these digests catch. *)

module P = Ditto_profile

let floats xs = String.concat " " (List.map (Printf.sprintf "%h") xs)
let bins xs = String.concat " " (List.map (fun (l, x) -> Printf.sprintf "%d:%h" l x) xs)

let rec profile_parts (t : P.Tier_profile.t) =
  let mix = t.P.Tier_profile.instmix
  and ws = t.P.Tier_profile.working_set
  and br = t.P.Tier_profile.branches
  and deps = t.P.Tier_profile.deps
  and sys = t.P.Tier_profile.syscalls in
  let hits hs = String.concat " " (List.map (fun (l, h) -> Printf.sprintf "%d:%d" l h) hs) in
  [
    t.P.Tier_profile.tier_name;
    Printf.sprintf "mix %h %h %h %s | %s" mix.P.Instmix.insts_per_request
      mix.P.Instmix.rep_mean_count mix.P.Instmix.rep_fraction
      (hits mix.P.Instmix.iform_counts)
      (String.concat ";"
         (List.map
            (fun (ids, w) ->
              Printf.sprintf "%s=%h" (String.concat "," (List.map string_of_int ids)) w)
            mix.P.Instmix.clusters));
    Printf.sprintf "ws d %d %s | %s | i %d %s | %s | %h %h %h" ws.P.Working_set.d_accesses_total
      (hits ws.P.Working_set.d_hits) (bins ws.P.Working_set.d_working_sets)
      ws.P.Working_set.i_accesses_total (hits ws.P.Working_set.i_hits)
      (bins ws.P.Working_set.i_working_sets) ws.P.Working_set.regular_ratio
      ws.P.Working_set.shared_ratio ws.P.Working_set.write_ratio;
    Printf.sprintf "br %d %h %s" br.P.Branches.static_branches br.P.Branches.branch_fraction
      (String.concat " "
         (List.map
            (fun ((s : P.Branches.site), p) ->
              Printf.sprintf "%d/%d/%b=%h" s.P.Branches.m s.P.Branches.n s.P.Branches.invert p)
            br.P.Branches.sites));
    Printf.sprintf "deps %s | %s | %s | %s | %h"
      (floats (Array.to_list deps.P.Deps.raw))
      (floats (Array.to_list deps.P.Deps.raw_addr))
      (floats (Array.to_list deps.P.Deps.war))
      (floats (Array.to_list deps.P.Deps.waw))
      deps.P.Deps.chase_fraction;
    Printf.sprintf "sys %s | %s"
      (match sys.P.Syscalls.file with
      | None -> "-"
      | Some f ->
          Printf.sprintf "%h %d %h %d %h %d" f.P.Syscalls.reads_per_request
            f.P.Syscalls.read_bytes_mean f.P.Syscalls.random_ratio f.P.Syscalls.offset_span
            f.P.Syscalls.writes_per_request f.P.Syscalls.write_bytes_mean)
      (String.concat " "
         (List.map
            (fun (k, mean) ->
              Printf.sprintf "%s/%d=%h" (Ditto_os.Syscall.name k)
                (Ditto_os.Syscall.payload_bytes k) mean)
            sys.P.Syscalls.misc));
  ]
  @ match t.P.Tier_profile.background with None -> [] | Some bg -> "bg" :: profile_parts bg

let golden_profiles =
  lazy
    (List.map
       (fun name ->
         let spec = (Ditto_apps.Registry.by_name name).Ditto_apps.Registry.spec () in
         (name, P.Tier_profile.profile_app ~requests:80 ~seed:47 spec))
       [
         "memcached"; "nginx"; "mongodb"; "redis"; "social_network"; "hotel_reservation";
         "media_service";
       ])

let test_golden_profiles () =
  List.iter
    (fun (name, expected) ->
      let app = List.assoc name (Lazy.force golden_profiles) in
      Alcotest.(check string)
        (name ^ " profile digest") expected
        (digest (List.concat_map profile_parts app.P.Tier_profile.tiers)))
    [
      ("memcached", "9f88fc2b53794015e068dc22c8b2fb38");
      ("nginx", "9c4edb05a118773e94086a7fed71170a");
      ("mongodb", "91d8f23f473fc38ca43628cc38a30ed3");
      ("redis", "792977639ceee7cceca47bda643847e6");
      ("social_network", "b77869074dfef6a00f4b8bf45ac8a789");
      ("hotel_reservation", "ce177d3a43ee6b8322bb712a7f634169");
      ("media_service", "af2b72b6d5f7ebad7b8eac047326f4e5");
    ]

let pattern_part = function
  | Ditto_isa.Block.No_mem -> "-"
  | Fixed_offset { region; offset } ->
      Printf.sprintf "fix %d+%d %d" region.region_base region.region_bytes offset
  | Seq_stride { region; start; stride; span } ->
      Printf.sprintf "seq %d+%d %d %d %d" region.region_base region.region_bytes start stride span
  | Rand_uniform { region; start; span } ->
      Printf.sprintf "rand %d+%d %d %d" region.region_base region.region_bytes start span
  | Chase { region; start; span } ->
      Printf.sprintf "chase %d+%d %d %d" region.region_base region.region_bytes start span

let block_part (b : Ditto_isa.Block.t) =
  let open Ditto_isa.Block in
  Printf.sprintf "%s@%d %s" b.label b.code_base
    (String.concat ";"
       (Array.to_list
          (Array.map
             (fun t ->
               Printf.sprintf "%s %d [%s] %s %s %d %d" t.iform.Ditto_isa.Iform.name t.dst
                 (String.concat "," (Array.to_list (Array.map string_of_int t.srcs)))
                 (pattern_part t.mem)
                 (match t.branch with
                 | None -> "-"
                 | Some s -> Printf.sprintf "%d/%d/%b" s.m s.n s.invert)
                 t.rep_count t.seq_phase)
             b.temps)))

(* Every block the generated handlers (request and background) return over
   eight requests, each block printed at its first appearance. *)
let tier_parts (tier : Spec.tier) =
  let seen = Hashtbl.create 16 in
  let ops_part = function
    | Spec.Compute (b, n) ->
        if Hashtbl.mem seen b.Ditto_isa.Block.uid then Printf.sprintf "%s x%d" b.label n
        else begin
          Hashtbl.add seen b.Ditto_isa.Block.uid ();
          Printf.sprintf "%s x%d" (block_part b) n
        end
    | Spec.Syscall k -> Ditto_os.Syscall.name k
    | Spec.File_read { offset; bytes; random } -> Printf.sprintf "read %d %d %b" offset bytes random
    | Spec.File_write { bytes } -> Printf.sprintf "write %d" bytes
    | Spec.Call { target; req_bytes; resp_bytes } ->
        Printf.sprintf "call %s %d %d" target req_bytes resp_bytes
  in
  let rng = Ditto_util.Rng.create 5 in
  List.concat
    (List.init 8 (fun req ->
         List.map ops_part
           (tier.Spec.handler rng req
           @ match tier.Spec.background_handler with None -> [] | Some bg -> bg rng)))

let golden_knobs =
  let d = Ditto_gen.Params.default in
  [
    d;
    { d with Ditto_gen.Params.i_ws_scale = 2.6; d_ws_scale = 0.3 };
    { d with Ditto_gen.Params.branch_m_shift = 2; branch_n_shift = -1; chase_scale = 1.7 };
    {
      Ditto_gen.Params.inst_scale = 0.7;
      i_ws_scale = 4.4;
      d_ws_scale = 3.0;
      big_mass_scale = 0.4;
      branch_m_shift = -1;
      branch_n_shift = 1;
      chase_scale = 0.5;
    };
  ]

let test_golden_generation () =
  List.iter
    (fun (name, expected) ->
      let app = List.assoc name (Lazy.force golden_profiles) in
      let tp = List.hd app.P.Tier_profile.tiers in
      let space =
        Layout.space ~tier_index:0 ~heap_bytes:tp.P.Tier_profile.heap_bytes
          ~shared_bytes:tp.P.Tier_profile.shared_bytes
      in
      let parts =
        List.concat_map
          (fun params ->
            tier_parts (Ditto_gen.Clone.synth_tier ~params ~profile:tp ~space ~downstream:[] ()))
          golden_knobs
      in
      Alcotest.(check string) (name ^ " generated blocks digest") expected (digest parts))
    [
      ("redis", "631cd04aec707bc678115589c74ba4f9");
      ("memcached", "441de5ebc42d04ac97ed0b9cdef6321c");
      ("nginx", "396f9b988b901d65e95d7bb87652f0a3");
      ("mongodb", "2e737988701e6737560525b15b0438b2");
    ]

(* [f ()] on a domain of its own. The kernel-path memo and the machine
   pool are per domain, and a run depends on what its domain measured
   before (ROADMAP item 1): runs made here move no later test's digest,
   and their results hold whichever tests ran first. *)
let on_fresh_domain f = Domain.join (Domain.spawn f)

(* {2 The measurement phase alone}

   [Runner.measure] is [Runner.run]'s measurement phase without the
   service phase, and the tuner and [ditto_cli profile] read nothing else.
   Every measured field but the tier spec (it holds closures) must match:
   on redis, on mongodb (a background thread and a 1 GB page-cache hint),
   on hotel_reservation's eleven tiers and on a 40-tier graph, which takes
   the sharded path. *)
let test_measure_is_run_measurement () =
  let graph =
    (Ditto_gen.Topology.generate (Ditto_gen.Topology.default ~tiers:40 ())).Ditto_gen.Topology.spec
  in
  let cfg = Runner.config ~requests:12 ~stacks:true Platform.a in
  let parts =
    List.map (fun (name, (r : Measure.tier_result)) ->
        ( name,
          r.Measure.traces,
          r.Measure.background_trace,
          r.Measure.stacks,
          r.Measure.counters,
          r.Measure.requests_measured ))
  in
  on_fresh_domain (fun () ->
      List.map
        (fun (what, (spec, load)) ->
          let run = (Runner.run cfg ~load spec).Runner.measured in
          (what, parts run = parts (Runner.measure cfg ~qps:load.Service.qps spec)))
        [
          ("redis", des_medium "redis" ~duration:0.05);
          ("mongodb", des_medium "mongodb" ~duration:0.05);
          ("hotel_reservation", des_medium "hotel_reservation" ~duration:0.05);
          ("synth-40", (graph, Service.load ~qps:500.0 ~duration:0.05 ()));
        ])
  |> List.iter (fun (what, equal) -> Alcotest.(check bool) (what ^ " measurement") true equal)

(* {2 Tuning trajectories}

   A tuned clone's whole search, as [Tuner.report_to_json] prints it: each
   iteration's errors, objective, winner and knob vector. redis has one
   tier and the graph four, so a change to how a candidate of either is
   generated or measured, or a moved draw in the candidate set, moves a
   digest. Each clone runs on a fresh domain, since a tuned graph's
   trajectory depends on what its domain measured before. *)
let tuning_digest spec load =
  on_fresh_domain @@ fun () ->
  let pool = Pool.create ~size:1 () in
  Fun.protect ~finally:(fun () -> Pool.shutdown pool) @@ fun () ->
  let r =
    Ditto_core.Pipeline.clone ~pool ~requests:30 ~profile_requests:30 ~platform:Platform.a ~load
      spec
  in
  match r.Ditto_core.Pipeline.tuning with
  | None -> Alcotest.fail "no tuning report"
  | Some report ->
      Digest.to_hex
        (Digest.string (Ditto_util.Jsonx.to_string (Ditto_tune.Tuner.report_to_json report)))

let test_golden_tuning () =
  let redis_spec, redis_load = des_medium "redis" ~duration:0.15 in
  let graph =
    (Ditto_gen.Topology.generate (Ditto_gen.Topology.default ~tiers:4 ())).Ditto_gen.Topology.spec
  in
  List.iter
    (fun (what, expected, spec, load) ->
      Alcotest.(check string) (what ^ " tuning digest") expected (tuning_digest spec load))
    [
      ("redis", "33e05c88954eb149d1962f060cfe50e0", redis_spec, redis_load);
      ("synth-4", "bf2af2d178361e3c318902682b6b056a", graph, Service.load ~qps:2000.0 ~duration:0.15 ());
    ]

(* {1 Allocation per engine event}

   The queue itself allocates nothing per event: slots, flat heap keys and
   the current-instant ring are preallocated arrays. What is left is the
   caller's side: the boxed time argument, effect values and handlers,
   wakers and their resume closures. *)

(* Minor words per iteration of [scenario e n] on a warm engine: the
   difference between [n] and [2n] iterations cancels the fixed set-up
   cost. *)
let words_per_iteration scenario =
  let e = Engine.create () in
  let go n = minor_words (fun () -> scenario e n; Engine.run e) in
  ignore (go 2000);
  let one = go 1000 in
  let two = go 2000 in
  (two -. one) /. 1000.0

(* A static callback that re-schedules itself at the current instant. *)
let immediate_callbacks e n =
  let left = ref n in
  let rec tick () =
    if !left > 0 then begin
      decr left;
      Engine.schedule e (Engine.now e) tick
    end
  in
  Engine.schedule e (Engine.now e) tick

(* One process parks in [suspend_timeout]; another wakes it 1 ms later,
   well before the 1 s deadline. *)
let beaten_timeouts e n =
  let parked = ref None in
  Engine.spawn e (fun () ->
      for _ = 1 to n do
        ignore (Engine.suspend_timeout 1.0 (fun w -> parked := Some w))
      done);
  Engine.spawn e (fun () ->
      for _ = 1 to n do
        Engine.wait 1e-3;
        Option.iter (fun w -> Engine.wake w ()) !parked
      done)

(* {2 Per-tier CPU stacks}

   Runs with the stacks switch on, written through [Flame.write_collapsed]:
   the digest of the file pins every stack's frames and its microsecond
   weight, so a change to what the measurement loop charges, or to how the
   tier tables are joined and ordered, shows here. test_report's redis run
   has one tier; hotel_reservation has eleven, whose handlers call
   downstream tiers. *)
let stacks_of (o : Runner.output) =
  List.concat_map (fun (_, (r : Measure.tier_result)) -> r.Measure.stacks) o.Runner.measured

let test_golden_folded () =
  let hotel_spec, hotel_load = des_medium "hotel_reservation" ~duration:0.15 in
  List.iter
    (fun (what, expected, cfg, load, spec) ->
      let path = Filename.temp_file "ditto_golden" ".folded" in
      ignore (Ditto_report.Flame.write_collapsed ~path (stacks_of (Runner.run cfg ~load spec)));
      let text = In_channel.with_open_bin path In_channel.input_all in
      Sys.remove path;
      Alcotest.(check string) (what ^ " folded digest") expected
        (Digest.to_hex (Digest.string text)))
    [
      ( "redis",
        "65704fd5ffae0fe5b59fc052715d87b8",
        Runner.config ~requests:80 ~seed:5 ~stacks:true Platform.a,
        Service.load ~qps:20_000.0 ~duration:0.3 (),
        Ditto_apps.Redis.spec () );
      ( "hotel_reservation",
        "755682860f73805861b82c88afb9bf36",
        Runner.config ~requests:40 ~seed:42 ~stacks:true Platform.a,
        hotel_load,
        hotel_spec );
    ]

(* The stacks only read the cycle counters and draw no random number, so a
   run with them is the run without them: every tier's counters and every
   field the [service results] digests cover. *)
let test_stacks_invariance () =
  List.iter
    (fun name ->
      let spec, load = des_medium name ~duration:0.15 in
      let run stacks =
        let o = Runner.run (Runner.config ~requests:40 ~seed:42 ~stacks Platform.a) ~load spec in
        ( List.map (fun (tier, m) -> tier ^ " " ^ counters_fingerprint m.Metrics.counters)
            o.Runner.per_tier,
          service_parts o.Runner.service,
          List.length (stacks_of o) )
      in
      let on_counters, on_service, on_stacks = run true in
      let off_counters, off_service, off_stacks = run false in
      Alcotest.(check bool) (name ^ " recorded stacks") true (on_stacks > 0 && off_stacks = 0);
      Alcotest.(check (list string)) (name ^ " per-tier counters") off_counters on_counters;
      Alcotest.(check (list string)) (name ^ " service result") off_service on_service)
    [ "redis"; "hotel_reservation" ]

(* The recorders read the clock and the queues and draw no random number,
   so runs (a) and (b) with the timeline and the request trace on equal
   the same runs with both off, field for field. Each pair runs back to
   back: the kernel-path memo makes a run depend on what ran before it. *)
let test_recorders_invariance () =
  List.iter
    (fun (what, run) ->
      let off = service_parts (run false) in
      let on = service_parts (run true) in
      Alcotest.(check (list string)) (what ^ " service result") off on)
    [
      ("surge_app", fun recorded -> surge_app ~recorded ());
      ("memcached surge", fun recorded -> memcached_surge ~recorded ());
    ]

let test_engine_event_words () =
  Alcotest.(check (float 0.0)) "immediate static callback" 2.0
    (words_per_iteration immediate_callbacks);
  Alcotest.(check (float 0.0)) "beaten suspend_timeout round trip" 60.0
    (words_per_iteration beaten_timeouts)

let () =
  Alcotest.run "perf"
    [
      ( "runner",
        [
          Alcotest.test_case "warm rerun bit-identical" `Slow test_warm_rerun_identical;
          Alcotest.test_case "clone reference == validation" `Slow
            test_clone_reference_is_validation;
          Alcotest.test_case "measure == run's measurement" `Slow test_measure_is_run_measurement;
        ] );
      ( "alloc",
        [
          Alcotest.test_case "exec_block allocates nothing" `Quick test_exec_block_allocation_free;
          Alcotest.test_case "Tlb.access allocates nothing" `Quick test_tlb_allocation_free;
          Alcotest.test_case "Page_cache.read allocates nothing" `Quick
            test_page_cache_allocation_free;
          Alcotest.test_case "engine words per event" `Quick test_engine_event_words;
          Alcotest.test_case "Stats.summary sorts without boxing" `Quick test_summary_words;
          Alcotest.test_case "fault handles and Deliver allocate nothing" `Quick
            test_fault_read_words;
        ] );
      ( "golden",
        [
          Alcotest.test_case "exec_block counters and clocks" `Quick test_golden_exec_block;
          Alcotest.test_case "redis run counters and segments" `Slow test_golden_runner;
          Alcotest.test_case "service results" `Slow test_golden_service;
          Alcotest.test_case "service exports" `Slow test_golden_exports;
          Alcotest.test_case "registry profiles" `Slow test_golden_profiles;
          Alcotest.test_case "generated blocks" `Slow test_golden_generation;
          Alcotest.test_case "folded stacks" `Slow test_golden_folded;
          Alcotest.test_case "tuning trajectories" `Slow test_golden_tuning;
        ] );
      ( "stacks",
        [ Alcotest.test_case "stacks leave the run unchanged" `Slow test_stacks_invariance ] );
      ( "obs",
        [
          Alcotest.test_case "recorders leave the serving phase unchanged" `Slow
            test_recorders_invariance;
        ] );
      ( "engine",
        [
          Alcotest.test_case "zero-delay FIFO order" `Quick test_engine_zero_delay_fifo;
          Alcotest.test_case "imm yields to earlier heap event" `Quick
            test_engine_imm_vs_heap_priority;
        ] );
    ]
