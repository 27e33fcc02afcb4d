(* Tests for the application layer: layout, spec, machine, measurement
   phase, DES service phase, runner. *)
open Ditto_app
open Ditto_isa
module Rng = Ditto_util.Rng
module Platform = Ditto_uarch.Platform

(* {1 Layout} *)

let test_layout_disjoint () =
  let a = Layout.space ~tier_index:0 ~heap_bytes:(1 lsl 20) ~shared_bytes:(1 lsl 16) in
  let b = Layout.space ~tier_index:1 ~heap_bytes:(1 lsl 20) ~shared_bytes:(1 lsl 16) in
  Alcotest.(check bool) "code disjoint" true (a.Layout.code_base <> b.Layout.code_base);
  let a_end = a.Layout.heap.Block.region_base + a.Layout.heap.Block.region_bytes in
  Alcotest.(check bool) "heaps disjoint" true (a_end <= b.Layout.heap.Block.region_base)

let test_layout_shared_region () =
  let s = Layout.space ~tier_index:2 ~heap_bytes:4096 ~shared_bytes:8192 in
  Alcotest.(check bool) "shared flagged" true s.Layout.shared.Block.shared;
  Alcotest.(check bool) "heap private" false s.Layout.heap.Block.shared

let test_layout_code_windows () =
  let s = Layout.space ~tier_index:0 ~heap_bytes:4096 ~shared_bytes:64 in
  Alcotest.(check int) "window stride 4KB" 4096
    (Layout.code_window s ~index:1 - Layout.code_window s ~index:0)

let test_layout_sub_heap () =
  let s = Layout.space ~tier_index:0 ~heap_bytes:(1 lsl 20) ~shared_bytes:64 in
  let sub = Layout.sub_heap s ~offset:65536 ~bytes:4096 in
  Alcotest.(check int) "offset applied"
    (s.Layout.heap.Block.region_base + 65536)
    sub.Block.region_base

(* {1 Spec} *)

let trivial_handler _rng _req = []

let test_spec_construction () =
  let t = Spec.tier ~name:"x" ~handler:trivial_handler () in
  let app = Spec.make ~name:"app" [ t ] in
  Alcotest.(check string) "entry defaults to first tier" "x" app.Spec.entry;
  Alcotest.(check bool) "single tier is not microservice" false (Spec.is_microservice app);
  Alcotest.(check string) "find_tier" "x" (Spec.find_tier app "x").Spec.tier_name

let test_spec_unknown_tier () =
  let app = Spec.make ~name:"app" [ Spec.tier ~name:"x" ~handler:trivial_handler () ] in
  Alcotest.check_raises "unknown tier"
    (Invalid_argument "Spec.find_tier: unknown tier \"nope\"") (fun () ->
      ignore (Spec.find_tier app "nope"))

let test_spec_empty_rejected () =
  Alcotest.check_raises "no tiers" (Invalid_argument "Spec.make: no tiers") (fun () ->
      ignore (Spec.make ~name:"app" []))

let test_spec_model_names () =
  Alcotest.(check string) "io mux" "io-multiplexing" (Spec.server_model_name Spec.Io_multiplexing);
  Alcotest.(check string) "sync" "synchronous" (Spec.client_model_name Spec.Sync_client)

(* {1 Machine} *)

let test_machine_defaults () =
  let engine = Ditto_sim.Engine.create () in
  let m = Machine.create engine Platform.c in
  Alcotest.(check int) "cores from platform" 4 (Machine.ncores m);
  let m2 = Machine.create ~cores:2 engine Platform.c in
  Alcotest.(check int) "core override" 2 (Machine.ncores m2)

let test_machine_cycles_to_seconds () =
  let engine = Ditto_sim.Engine.create () in
  let m = Machine.create engine Platform.a in
  Alcotest.(check (float 1e-12)) "2.1GHz" (1.0 /. 2.1e9) (Machine.cycles_to_seconds m 1.0)

(* {1 A small test application} *)

let small_app ?(file_bytes = 0) ?(call_target = None) () =
  let space = Layout.space ~tier_index:0 ~heap_bytes:(1 lsl 20) ~shared_bytes:(1 lsl 16) in
  let block =
    let temps =
      List.init 64 (fun i ->
          Block.temp (Iform.by_name "ADD_GPR64_GPR64") ~dst:(i mod 8) ~srcs:[| (i + 1) mod 8 |])
    in
    Block.make ~label:"small" ~code_base:(Layout.code_window space ~index:0) temps
  in
  let handler _rng _req =
    List.concat
      [
        [ Spec.Compute (block, 4) ];
        (if file_bytes > 0 then [ Spec.File_read { offset = 0; bytes = 4096; random = true } ]
         else []);
        (match call_target with
        | Some t -> [ Spec.Call { target = t; req_bytes = 64; resp_bytes = 128 } ]
        | None -> []);
      ]
  in
  Spec.tier ~name:"small" ~workers:2 ~heap_bytes:(1 lsl 20) ~shared_bytes:(1 lsl 16)
    ~file_bytes ~handler ()

(* {1 Measure} *)

let measure_small ?config ?(file_bytes = 0) () =
  let engine = Ditto_sim.Engine.create () in
  let machine = Machine.create engine Platform.a in
  let tier = small_app ~file_bytes () in
  let space = Layout.space ~tier_index:0 ~heap_bytes:(1 lsl 20) ~shared_bytes:(1 lsl 16) in
  List.hd (Measure.run ?config ~machine ~seed:1 ~requests:50 [ (tier, space) ])

let test_measure_produces_traces () =
  let r = measure_small () in
  Alcotest.(check int) "one trace per request" 50 (Array.length r.Measure.traces);
  Alcotest.(check int) "requests measured" 50 r.Measure.requests_measured;
  Alcotest.(check bool) "cpu time positive" true (r.Measure.cpu_mean > 0.0);
  Array.iter
    (fun tr ->
      Alcotest.(check bool) "every trace has cpu work" true (Measure.trace_cpu_seconds tr > 0.0))
    r.Measure.traces

let test_measure_counts_kernel_work () =
  let r = measure_small () in
  let c = r.Measure.counters in
  (* user block = 256 insts/request; kernel skeleton adds thousands *)
  Alcotest.(check bool) "kernel instructions dominate skeleton" true
    (c.Ditto_uarch.Counters.insts > 50 * 500)

let test_measure_disk_trace () =
  (* With a dataset far larger than the page cache, reads reach the disk. *)
  let engine = Ditto_sim.Engine.create () in
  let machine = Machine.create ~page_cache_bytes:(1 lsl 20) engine Platform.a in
  let tier = small_app ~file_bytes:(1 lsl 30) () in
  let tier =
    { tier with
      Spec.handler =
        (fun rng _ ->
          [ Spec.File_read { offset = 4096 * Rng.int rng 200_000; bytes = 4096; random = true } ]);
    }
  in
  let space = Layout.space ~tier_index:0 ~heap_bytes:(1 lsl 20) ~shared_bytes:(1 lsl 16) in
  let r = List.hd (Measure.run ~machine ~seed:2 ~requests:50 [ (tier, space) ]) in
  let has_disk =
    Array.exists
      (List.exists (function Measure.Disk_read _ -> true | _ -> false))
      r.Measure.traces
  in
  Alcotest.(check bool) "disk segments present" true has_disk

let test_measure_call_trace () =
  let engine = Ditto_sim.Engine.create () in
  let machine = Machine.create engine Platform.a in
  let tier = small_app ~call_target:(Some "down") () in
  let space = Layout.space ~tier_index:0 ~heap_bytes:(1 lsl 20) ~shared_bytes:(1 lsl 16) in
  let r = List.hd (Measure.run ~machine ~seed:3 ~requests:10 [ (tier, space) ]) in
  Array.iter
    (fun tr ->
      Alcotest.(check bool) "downstream recorded" true
        (List.exists (function Measure.Downstream { target = "down"; _ } -> true | _ -> false) tr))
    r.Measure.traces

let test_measure_deterministic () =
  let a = measure_small () and b = measure_small () in
  Alcotest.(check (float 1e-12)) "same seed, same cpu_mean" a.Measure.cpu_mean b.Measure.cpu_mean

let test_measure_idle_pollution_slows () =
  let base = Measure.default_config in
  let polluted = { base with Measure.idle_per_request = 1e-3 } in
  let a = measure_small ~config:base () and b = measure_small ~config:polluted () in
  Alcotest.(check bool) "housekeeping pollution increases per-request cpu" true
    (b.Measure.cpu_mean > a.Measure.cpu_mean)

let test_measure_server_model_kernel_cost () =
  (* §4.3.1: the network model changes the kernel work per request — an
     epoll server pays the epoll_wait path a blocking server does not. *)
  let measure_with model =
    let engine = Ditto_sim.Engine.create () in
    let machine = Machine.create engine Platform.a in
    let tier = { (small_app ()) with Spec.server_model = model } in
    let space = Layout.space ~tier_index:0 ~heap_bytes:(1 lsl 20) ~shared_bytes:(1 lsl 16) in
    let r = List.hd (Measure.run ~machine ~seed:1 ~requests:50 [ (tier, space) ]) in
    r.Measure.counters.Ditto_uarch.Counters.insts
  in
  let epoll = measure_with Spec.Io_multiplexing in
  let blocking = measure_with Spec.Blocking in
  Alcotest.(check bool) "epoll server executes more kernel instructions" true
    (epoll > blocking)

let test_measure_smt_pressure_slows () =
  let pressured = { Measure.default_config with Measure.smt_pressure = 0.5 } in
  let a = measure_small () and b = measure_small ~config:pressured () in
  Alcotest.(check bool) "smt halving slows" true (b.Measure.cpu_mean > a.Measure.cpu_mean)

(* {1 Service + Runner} *)

let run_small ?(qps = 2000.0) ?(open_loop = true) () =
  let tier = small_app () in
  let app = Spec.make ~name:"small_app" [ tier ] in
  let cfg = Runner.config ~requests:60 ~seed:5 Platform.a in
  let load = Service.load ~qps ~open_loop ~duration:0.5 () in
  Runner.run cfg ~load app

let test_runner_end_to_end () =
  let out = run_small () in
  let lat = out.Runner.end_to_end in
  Alcotest.(check bool) "requests completed" true (lat.Ditto_util.Stats.count > 100);
  Alcotest.(check bool) "latency positive" true (lat.Ditto_util.Stats.mean > 0.0);
  Alcotest.(check bool) "p99 >= p50" true
    (lat.Ditto_util.Stats.p99 >= lat.Ditto_util.Stats.p50)

let test_runner_achieved_qps () =
  let out = run_small ~qps:2000.0 () in
  let q = out.Runner.service.Service.achieved_qps in
  Alcotest.(check bool) "achieved close to offered" true (q > 1500.0 && q < 2500.0)

let test_runner_metrics_present () =
  let out = run_small () in
  let m = Runner.tier_metrics out "small" in
  Alcotest.(check bool) "ipc sane" true (m.Metrics.ipc > 0.05 && m.Metrics.ipc < 4.0);
  Alcotest.(check bool) "net bandwidth measured" true (m.Metrics.net_mbps > 0.0)

let test_runner_deterministic () =
  let a = run_small () and b = run_small () in
  let ma = Runner.tier_metrics a "small" and mb = Runner.tier_metrics b "small" in
  Alcotest.(check (float 1e-9)) "same seed same ipc" ma.Metrics.ipc mb.Metrics.ipc;
  Alcotest.(check (float 1e-9)) "same latency" ma.Metrics.lat_p99 mb.Metrics.lat_p99

let test_runner_closed_loop_bounded () =
  (* Closed loop: outstanding requests bounded by connections, so offered
     overload does not blow up latency. *)
  let out = run_small ~qps:1e9 ~open_loop:false () in
  Alcotest.(check bool) "closed loop saturates gracefully" true
    (out.Runner.end_to_end.Ditto_util.Stats.p99 < 1.0)

let test_runner_load_latency_grows () =
  (* Queueing only shows near saturation: use a single-worker tier with a
     heavier body so the knee is reachable quickly. *)
  let heavy () =
    let tier = small_app () in
    let tier =
      {
        tier with
        Spec.thread_model = { tier.Spec.thread_model with Spec.workers = 1 };
        handler =
          (fun rng req ->
            List.map
              (function Spec.Compute (b, _) -> Spec.Compute (b, 120) | op -> op)
              (tier.Spec.handler rng req));
      }
    in
    Spec.make ~name:"heavy" [ tier ]
  in
  let run qps =
    let cfg = Runner.config ~requests:60 ~seed:5 Platform.a in
    let load = Service.load ~qps ~open_loop:true ~duration:0.3 () in
    Runner.run cfg ~load (heavy ())
  in
  let low = run 20_000.0 and high = run 210_000.0 in
  Alcotest.(check bool) "p99 grows near saturation" true
    (high.Runner.end_to_end.Ditto_util.Stats.p99
    > 1.2 *. low.Runner.end_to_end.Ditto_util.Stats.p99)

(* Open-loop overload straight through [Service.run]: one I/O-multiplexing
   worker whose every request is 1 ms on-CPU (capacity 1,000/s), offered
   20,000 qps for 0.1 s over 4 connections, about 2,000 arrivals. Almost
   every request finds its connection busy and waits as a queue entry, so
   the run starts no process per request; and its latency, timed from
   submission, counts the time it waited. *)
let test_service_overload_queues_at_connection () =
  let tier = Spec.tier ~name:"slow" ~workers:1 ~handler:trivial_handler () in
  let app = Spec.make ~name:"slow_app" [ tier ] in
  let service_time = 1e-3 in
  let mres =
    {
      Measure.tier;
      space = Layout.space ~tier_index:0 ~heap_bytes:4096 ~shared_bytes:64;
      traces = [| [ Measure.Cpu service_time ] |];
      background_trace = None;
      counters = Ditto_uarch.Counters.create ();
      requests_measured = 1;
      cpu_mean = service_time;
      stacks = [];
    }
  in
  let engine = Ditto_sim.Engine.create () in
  let machine = Machine.create engine Platform.a in
  let connections = 4 and workers = 1 in
  let r =
    Service.run ~app ~machine ~results:(fun _ -> mres) ~seed:7
      (Service.load ~qps:20_000.0 ~connections ~duration:0.1 ())
  in
  Machine.release machine;
  (* Set-up spawns one process per connection to attach its server end,
     and one arrival generator. *)
  let setup = connections + 1 in
  Alcotest.(check bool) "overloaded" true (r.Service.completed > 100);
  Alcotest.(check bool) "one client process per connection" true
    (Ditto_sim.Engine.processes_started engine <= connections + workers + setup);
  (* Recorded when every arrival forked a process and queued on a
     per-connection mutex: an arrival is still one event, and handing a
     connection to its next request still one more. *)
  Alcotest.(check int) "events" 8155 (Ditto_sim.Engine.events_processed engine);
  Alcotest.(check bool) "queued time counted" true
    (r.Service.latency.Ditto_util.Stats.p50 > 10.0 *. service_time)

let test_idle_estimate () =
  Alcotest.(check bool) "low qps -> more idle" true
    (Runner.estimate_idle_per_request ~qps:100.0 ~workers:1
    > Runner.estimate_idle_per_request ~qps:100000.0 ~workers:1);
  Alcotest.(check bool) "clamped" true
    (Runner.estimate_idle_per_request ~qps:0.001 ~workers:4 <= 5e-3)

(* {1 Metrics} *)

let test_metrics_errors () =
  let mk ipc l1i =
    {
      Metrics.label = "m";
      qps = 1.0;
      ipc;
      branch_miss_rate = 0.1;
      l1i_miss_rate = l1i;
      l1d_miss_rate = 0.1;
      l2_miss_rate = 0.1;
      llc_miss_rate = 0.1;
      net_mbps = 10.0;
      disk_mbps = 0.0;
      lat_avg = 1e-3;
      lat_p95 = 2e-3;
      lat_p99 = 3e-3;
      counters = Ditto_uarch.Counters.create ();
    }
  in
  let errs = Metrics.error_pct ~actual:(mk 1.0 0.1) ~synthetic:(mk 1.1 0.1) in
  Alcotest.(check (float 1e-6)) "10% ipc error" 10.0 (List.assoc "IPC" errs);
  Alcotest.(check (float 1e-6)) "0% L1i error" 0.0 (List.assoc "L1i" errs);
  let lat = Metrics.latency_error_pct ~actual:(mk 1.0 0.1) ~synthetic:(mk 1.0 0.1) in
  Alcotest.(check (float 1e-6)) "latency exact" 0.0 (List.assoc "p99" lat)

let () =
  Alcotest.run "app"
    [
      ( "layout",
        [
          Alcotest.test_case "disjoint" `Quick test_layout_disjoint;
          Alcotest.test_case "shared region" `Quick test_layout_shared_region;
          Alcotest.test_case "code windows" `Quick test_layout_code_windows;
          Alcotest.test_case "sub heap" `Quick test_layout_sub_heap;
        ] );
      ( "spec",
        [
          Alcotest.test_case "construction" `Quick test_spec_construction;
          Alcotest.test_case "unknown tier" `Quick test_spec_unknown_tier;
          Alcotest.test_case "empty rejected" `Quick test_spec_empty_rejected;
          Alcotest.test_case "model names" `Quick test_spec_model_names;
        ] );
      ( "machine",
        [
          Alcotest.test_case "defaults" `Quick test_machine_defaults;
          Alcotest.test_case "cycles to seconds" `Quick test_machine_cycles_to_seconds;
        ] );
      ( "measure",
        [
          Alcotest.test_case "traces" `Quick test_measure_produces_traces;
          Alcotest.test_case "kernel work" `Quick test_measure_counts_kernel_work;
          Alcotest.test_case "disk trace" `Quick test_measure_disk_trace;
          Alcotest.test_case "call trace" `Quick test_measure_call_trace;
          Alcotest.test_case "deterministic" `Quick test_measure_deterministic;
          Alcotest.test_case "idle pollution" `Quick test_measure_idle_pollution_slows;
          Alcotest.test_case "server model kernel cost" `Quick test_measure_server_model_kernel_cost;
          Alcotest.test_case "smt pressure" `Quick test_measure_smt_pressure_slows;
        ] );
      ( "runner",
        [
          Alcotest.test_case "end to end" `Quick test_runner_end_to_end;
          Alcotest.test_case "achieved qps" `Quick test_runner_achieved_qps;
          Alcotest.test_case "metrics present" `Quick test_runner_metrics_present;
          Alcotest.test_case "deterministic" `Quick test_runner_deterministic;
          Alcotest.test_case "closed loop bounded" `Quick test_runner_closed_loop_bounded;
          Alcotest.test_case "latency grows" `Quick test_runner_load_latency_grows;
          Alcotest.test_case "overload queues at the connection" `Quick
            test_service_overload_queues_at_connection;
          Alcotest.test_case "idle estimate" `Quick test_idle_estimate;
        ] );
      ("metrics", [ Alcotest.test_case "errors" `Quick test_metrics_errors ]);
    ]
