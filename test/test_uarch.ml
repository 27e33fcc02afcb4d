(* Tests for the microarchitecture layer: caches, predictor, prefetcher,
   counters/top-down, memory hierarchy, interval core model. *)
open Ditto_uarch
open Ditto_isa
module Rng = Ditto_util.Rng

let check_close msg tolerance expected actual =
  if Float.abs (expected -. actual) > tolerance then
    Alcotest.failf "%s: expected %g within %g, got %g" msg expected tolerance actual

(* {1 Cache} *)

let test_cache_hit_after_fill () =
  let c = Cache.create ~size_bytes:4096 ~assoc:4 () in
  Alcotest.(check bool) "first is miss" false (Cache.access c 0x1000);
  Alcotest.(check bool) "second is hit" true (Cache.access c 0x1000);
  Alcotest.(check bool) "same line hits" true (Cache.access c 0x1010)

let test_cache_capacity_eviction () =
  (* A working set larger than the cache must miss when cycled (LRU). *)
  let c = Cache.create ~size_bytes:1024 ~assoc:2 () in
  let lines = 32 in
  for pass = 1 to 3 do
    for i = 0 to lines - 1 do
      let hit = Cache.access c (i * 64) in
      if pass > 1 then Alcotest.(check bool) "cyclic > capacity always misses" false hit
    done
  done

let test_cache_fits_working_set () =
  let c = Cache.create ~size_bytes:4096 ~assoc:8 () in
  for pass = 1 to 3 do
    for i = 0 to 31 do
      (* 2KB working set in a 4KB cache *)
      let hit = Cache.access c (i * 64) in
      if pass > 1 then Alcotest.(check bool) "resident set hits" true hit
    done
  done

let test_cache_lru_order () =
  let c = Cache.create ~size_bytes:128 ~assoc:2 () in
  (* one set of 2 ways with 64B lines -> addresses 0, 128, 256 map together
     only if sets=1; 128/64/2 = 1 set. *)
  ignore (Cache.access c 0);
  ignore (Cache.access c 64);
  ignore (Cache.access c 0);
  (* 0 is MRU; inserting a third line evicts 64 *)
  ignore (Cache.access c 128);
  Alcotest.(check bool) "MRU survived" true (Cache.access c 0);
  Alcotest.(check bool) "LRU evicted" false (Cache.access c 64)

let test_cache_invalidate_probe () =
  let c = Cache.create ~size_bytes:1024 ~assoc:4 () in
  ignore (Cache.access c 0x40);
  Alcotest.(check bool) "probe present" true (Cache.probe c 0x40);
  Alcotest.(check bool) "invalidate hit" true (Cache.invalidate c 0x40);
  Alcotest.(check bool) "probe absent" false (Cache.probe c 0x40);
  Alcotest.(check bool) "invalidate miss" false (Cache.invalidate c 0x40)

let test_cache_flush () =
  let c = Cache.create ~size_bytes:1024 ~assoc:4 () in
  ignore (Cache.access c 0);
  Cache.flush c;
  Alcotest.(check bool) "cold after flush" false (Cache.access c 0)

let test_cache_plru () =
  let c = Cache.create ~replacement:Cache.Plru ~size_bytes:4096 ~assoc:8 () in
  for i = 0 to 7 do
    ignore (Cache.access c (i * 512)) (* map to the same set region *)
  done;
  ignore (Cache.access c 0);
  Alcotest.(check bool) "plru retains within capacity" true (Cache.sets c >= 1)

(* {1 Branch predictor} *)

let test_predictor_biased_branch () =
  let bp = Branch_pred.create ~entries:4096 ~btb_entries:1024 () in
  let mp = ref 0 in
  for _ = 1 to 1000 do
    match Branch_pred.predict_and_update bp ~pc:0x100 ~taken:true with
    | `Mispredict -> incr mp
    | `Correct | `Btb_miss -> ()
  done;
  Alcotest.(check bool) "always-taken nearly perfect" true (!mp < 25)

let test_predictor_periodic_pattern () =
  let bp = Branch_pred.create ~entries:16384 ~btb_entries:4096 () in
  let mp = ref 0 in
  for k = 0 to 9999 do
    let taken = Block.branch_outcome ~m:2 ~n:4 k in
    match Branch_pred.predict_and_update bp ~pc:0x200 ~taken with
    | `Mispredict -> incr mp
    | `Correct | `Btb_miss -> ()
  done;
  Alcotest.(check bool) "periodic pattern learned (<10% miss)" true (!mp < 1000)

let test_predictor_random_hard () =
  let bp = Branch_pred.create ~entries:4096 ~btb_entries:1024 () in
  let rng = Rng.create 77 in
  let mp = ref 0 in
  for _ = 1 to 4000 do
    match Branch_pred.predict_and_update bp ~pc:0x300 ~taken:(Rng.bool rng) with
    | `Mispredict -> incr mp
    | `Correct | `Btb_miss -> ()
  done;
  Alcotest.(check bool) "random is hard (>30% miss)" true (!mp > 1200)

let test_btb_miss_on_new_target () =
  let bp = Branch_pred.create ~entries:64 ~btb_entries:64 () in
  Alcotest.(check bool) "first unconditional misses BTB" true
    (Branch_pred.note_unconditional bp ~pc:0x999 = `Btb_miss);
  Alcotest.(check bool) "second hits" true
    (Branch_pred.note_unconditional bp ~pc:0x999 = `Correct)

(* {1 Prefetcher} *)

let test_prefetcher_stride () =
  let p = Prefetcher.create ~degree:2 () in
  let fills = ref [] in
  for i = 0 to 9 do
    Prefetcher.observe p ~pc:0x10 ~addr:(i * 64) (fun a -> fills := a :: !fills)
  done;
  Alcotest.(check bool) "stride confirmed -> prefetches issued" true (List.length !fills > 0);
  (* prefetches land ahead of the stream *)
  List.iter (fun a -> Alcotest.(check bool) "ahead" true (a > 0)) !fills

let test_prefetcher_random_silent () =
  let p = Prefetcher.create () in
  let rng = Rng.create 9 in
  let fills = ref 0 in
  for _ = 1 to 200 do
    Prefetcher.observe p ~pc:0x20 ~addr:(64 * Rng.int rng 100000) (fun _ -> incr fills)
  done;
  Alcotest.(check bool) "random stream mostly silent" true (!fills < 20)

(* {1 Counters and top-down} *)

let test_counters_derived () =
  let c = Counters.create () in
  c.Counters.insts <- 1000;
  c.Counters.s.Counters.cycles <- 500.0;
  c.Counters.branches <- 100;
  c.Counters.mispredicts <- 5;
  c.Counters.l1d_accesses <- 400;
  c.Counters.l1d_misses <- 40;
  Alcotest.(check (float 1e-9)) "ipc" 2.0 (Counters.ipc c);
  Alcotest.(check (float 1e-9)) "cpi" 0.5 (Counters.cpi c);
  Alcotest.(check (float 1e-9)) "branch miss" 0.05 (Counters.branch_miss_rate c);
  Alcotest.(check (float 1e-9)) "l1d miss" 0.1 (Counters.l1d_miss_rate c);
  Alcotest.(check (float 1e-9)) "mpki" 5.0 (Counters.branch_mpki c)

let test_counters_sub_acc () =
  let a = Counters.create () and b = Counters.create () in
  a.Counters.insts <- 10;
  b.Counters.insts <- 4;
  let d = Counters.sub a b in
  Alcotest.(check int) "sub" 6 d.Counters.insts;
  Counters.acc b d;
  Alcotest.(check int) "acc" 10 b.Counters.insts;
  Counters.reset a;
  Alcotest.(check int) "reset" 0 a.Counters.insts

let test_topdown_normalised () =
  let c = Counters.create () in
  c.Counters.s.Counters.retiring <- 30.0;
  c.Counters.s.Counters.frontend <- 30.0;
  c.Counters.s.Counters.bad_spec <- 20.0;
  c.Counters.s.Counters.backend <- 20.0;
  let td = Counters.topdown c in
  check_close "sums to 1" 1e-9 1.0
    (td.Counters.retiring +. td.Counters.frontend +. td.Counters.bad_speculation
   +. td.Counters.backend);
  Alcotest.(check (float 1e-9)) "retiring" 0.3 td.Counters.retiring

(* {1 Platform} *)

let test_platform_table1 () =
  Alcotest.(check int) "A cores" 22 Platform.a.Platform.cores;
  Alcotest.(check int) "B L2" (256 * 1024) Platform.b.Platform.l2_bytes;
  Alcotest.(check int) "A L2 = 1MB" (1024 * 1024) Platform.a.Platform.l2_bytes;
  Alcotest.(check bool) "A has SSD" true (Platform.a.Platform.disk = Platform.Ssd);
  Alcotest.(check bool) "C is Skylake" true (Platform.c.Platform.family = "Skylake");
  Alcotest.(check (float 1e-9)) "A net 10G" 10.0 Platform.a.Platform.net_gbps;
  Alcotest.(check int) "rows cover Table 1" 11 (List.length Platform.table1_rows)

let test_platform_frequency_scaling () =
  let half = Platform.with_frequency Platform.a 1.05 in
  Alcotest.(check (float 1e-9)) "freq set" 1.05 half.Platform.freq_ghz;
  Alcotest.(check bool) "dram cycles scale down" true
    (half.Platform.lat_mem < Platform.a.Platform.lat_mem)

let test_platform_lookup () =
  Alcotest.(check string) "by name" "Gold 6152" (Platform.by_name "A").Platform.cpu_model;
  Alcotest.check_raises "unknown" Not_found (fun () -> ignore (Platform.by_name "Z"))

(* {1 Memory hierarchy} *)

let test_memory_latency_ladder () =
  let mem = Memory.create Platform.a ~ncores:2 in
  let l1 = Memory.access_data mem ~core:0 ~addr:0x1_0000 ~write:false ~shared:false in
  Alcotest.(check bool) "cold miss costs at least DRAM (plus TLB walk)" true
    (l1 >= Platform.a.Platform.lat_mem);
  let l2 = Memory.access_data mem ~core:0 ~addr:0x1_0000 ~write:false ~shared:false in
  Alcotest.(check int) "then L1 hit" Platform.a.Platform.lat_l1 l2

let test_memory_counters_attribution () =
  let mem = Memory.create Platform.a ~ncores:2 in
  ignore (Memory.access_data mem ~core:1 ~addr:0x2_0000 ~write:false ~shared:false);
  let c0 = Memory.counters mem 0 and c1 = Memory.counters mem 1 in
  Alcotest.(check int) "core 0 untouched" 0 c0.Counters.l1d_accesses;
  Alcotest.(check int) "core 1 counted" 1 c1.Counters.l1d_accesses

let test_memory_set_counter () =
  let mem = Memory.create Platform.a ~ncores:1 in
  let mine = Counters.create () in
  Memory.set_counter mem 0 mine;
  ignore (Memory.access_data mem ~core:0 ~addr:0x40 ~write:true ~shared:false);
  Alcotest.(check int) "swapped counter sees access" 1 mine.Counters.l1d_accesses

let test_memory_coherence () =
  let mem = Memory.create Platform.a ~ncores:2 in
  (* Core 0 writes a shared line; core 1's read must pay a coherence miss
     even after having cached it. *)
  ignore (Memory.access_data mem ~core:1 ~addr:0x8000 ~write:false ~shared:true);
  ignore (Memory.access_data mem ~core:1 ~addr:0x8000 ~write:false ~shared:true);
  ignore (Memory.access_data mem ~core:0 ~addr:0x8000 ~write:true ~shared:true);
  let before = (Memory.counters mem 1).Counters.coherence_misses in
  let lat = Memory.access_data mem ~core:1 ~addr:0x8000 ~write:false ~shared:true in
  let after = (Memory.counters mem 1).Counters.coherence_misses in
  Alcotest.(check bool) "coherence miss counted" true (after > before);
  Alcotest.(check bool) "transfer latency beyond L1" true (lat > Platform.a.Platform.lat_l1)

let test_memory_inst_side () =
  let mem = Memory.create Platform.a ~ncores:1 in
  let cold = Memory.access_inst mem ~core:0 ~addr:0x1_0000 in
  Alcotest.(check bool) "cold fetch bubble" true (cold > 0);
  let warm = Memory.access_inst mem ~core:0 ~addr:0x1_0000 in
  Alcotest.(check int) "warm fetch free" 0 warm

(* {1 Core model} *)

let heap = Block.make_region ~base:0x4000_0000 ~bytes:(1 lsl 24) ~shared:false

let run_block ?(iterations = 1000) temps =
  let mem = Memory.create Platform.a ~ncores:1 in
  let core = Core_model.create mem ~core:0 in
  let b = Block.make ~label:"t" ~code_base:0x10_0000 temps in
  Core_model.exec_block core ~rng:(Rng.create 1) b ~iterations;
  Core_model.counters core

let test_core_serial_vs_parallel () =
  (* A dependent chain must be slower than independent instructions. *)
  let serial =
    List.init 8 (fun _ ->
        Block.temp (Iform.by_name "IMUL_GPR64_GPR64") ~dst:0 ~srcs:[| 0; 0 |])
  in
  let parallel =
    List.init 8 (fun i ->
        Block.temp (Iform.by_name "ADD_GPR64_GPR64") ~dst:(i mod 8) ~srcs:[| (i + 1) mod 8 |])
  in
  let cs = run_block serial and cp = run_block parallel in
  Alcotest.(check bool) "serial IPC lower" true (Counters.ipc cs < Counters.ipc cp);
  Alcotest.(check bool) "parallel IPC decent" true (Counters.ipc cp > 1.0)

let test_core_port_contention () =
  (* Divides serialise on the lone divider port. *)
  let divs =
    List.init 4 (fun i -> Block.temp (Iform.by_name "IDIV_GPR64") ~dst:i ~srcs:[| i + 4 |])
  in
  let c = run_block divs in
  Alcotest.(check bool) "division-bound IPC << 1" true (Counters.ipc c < 0.3)

let test_core_memory_latency_hurts () =
  let hot =
    [ Block.temp (Iform.by_name "MOV_GPR64_MEM") ~dst:0 ~srcs:[| 1 |]
        ~mem:(Block.Fixed_offset { region = heap; offset = 0 }) ]
  in
  let streaming =
    [ Block.temp (Iform.by_name "MOV_GPR64_MEM") ~dst:0 ~srcs:[| 1 |]
        ~mem:(Block.Seq_stride { region = heap; start = 0; stride = 64; span = 1 lsl 24 }) ]
  in
  let ch = run_block ~iterations:4000 hot and cs = run_block ~iterations:4000 streaming in
  Alcotest.(check bool) "streaming slower than hot line" true
    (Counters.ipc cs < Counters.ipc ch)

let test_core_pointer_chase_serialises () =
  let chase =
    [ Block.temp (Iform.by_name "MOV_GPR64_MEM") ~dst:11 ~srcs:[| 11 |]
        ~mem:(Block.Chase { region = heap; start = 0; span = 1 lsl 24 }) ]
  in
  let independent =
    [ Block.temp (Iform.by_name "MOV_GPR64_MEM") ~dst:0 ~srcs:[| 1 |]
        ~mem:(Block.Rand_uniform { region = heap; start = 0; span = 1 lsl 24 }) ]
  in
  let cc = run_block ~iterations:2000 chase and ci = run_block ~iterations:2000 independent in
  Alcotest.(check bool) "chasing slower than independent misses" true
    (Counters.cpi cc > Counters.cpi ci)

let test_core_counts_insts () =
  let c =
    run_block ~iterations:123
      [ Block.temp (Iform.by_name "ADD_GPR64_GPR64") ~dst:0 ~srcs:[| 1 |];
        Block.temp (Iform.by_name "NOP") ]
  in
  Alcotest.(check int) "dynamic instruction count" 246 c.Counters.insts

let test_core_branches_counted () =
  let c =
    run_block ~iterations:512
      [ Block.temp (Iform.by_name "JNZ_REL") ~branch:{ Block.m = 1; n = 3; invert = false } ]
  in
  Alcotest.(check int) "branches" 512 c.Counters.branches;
  Alcotest.(check bool) "some mispredicts early" true (c.Counters.mispredicts > 0)

let test_core_width_factor () =
  let mk factor =
    let mem = Memory.create Platform.a ~ncores:1 in
    let core = Core_model.create mem ~core:0 in
    Core_model.set_width_factor core factor;
    let temps =
      List.init 16 (fun i ->
          Block.temp (Iform.by_name "ADD_GPR64_GPR64") ~dst:(i mod 8) ~srcs:[| (i + 1) mod 8 |])
    in
    let b = Block.make ~label:"w" ~code_base:0x20_0000 temps in
    Core_model.exec_block core ~rng:(Rng.create 2) b ~iterations:500;
    Counters.ipc (Core_model.counters core)
  in
  Alcotest.(check bool) "halving width halves throughput-bound IPC" true
    (mk 0.5 < mk 1.0)

let test_core_rep_string_scales () =
  let rep n =
    let c =
      run_block ~iterations:50
        [ Block.temp (Iform.by_name "REP_MOVSB") ~srcs:[| 6 |] ~rep_count:n
            ~mem:(Block.Seq_stride { region = heap; start = 0; stride = 64; span = 1 lsl 20 }) ]
    in
    Counters.cycles c
  in
  Alcotest.(check bool) "bigger copies cost more" true (rep 4096 > rep 256)

let test_core_topdown_accumulates () =
  let c =
    run_block ~iterations:2000
      [ Block.temp (Iform.by_name "MOV_GPR64_MEM") ~dst:0 ~srcs:[| 0 |]
          ~mem:(Block.Chase { region = heap; start = 0; span = 1 lsl 24 }) ]
  in
  let td = Counters.topdown c in
  Alcotest.(check bool) "memory-bound stream is backend-bound" true
    (td.Counters.backend > td.Counters.retiring)

let () =
  Alcotest.run "uarch"
    [
      ( "cache",
        [
          Alcotest.test_case "hit after fill" `Quick test_cache_hit_after_fill;
          Alcotest.test_case "capacity eviction" `Quick test_cache_capacity_eviction;
          Alcotest.test_case "fits working set" `Quick test_cache_fits_working_set;
          Alcotest.test_case "lru order" `Quick test_cache_lru_order;
          Alcotest.test_case "invalidate/probe" `Quick test_cache_invalidate_probe;
          Alcotest.test_case "flush" `Quick test_cache_flush;
          Alcotest.test_case "plru" `Quick test_cache_plru;
        ] );
      ( "branch_pred",
        [
          Alcotest.test_case "biased branch" `Quick test_predictor_biased_branch;
          Alcotest.test_case "periodic pattern" `Quick test_predictor_periodic_pattern;
          Alcotest.test_case "random hard" `Quick test_predictor_random_hard;
          Alcotest.test_case "btb" `Quick test_btb_miss_on_new_target;
        ] );
      ( "prefetcher",
        [
          Alcotest.test_case "stride" `Quick test_prefetcher_stride;
          Alcotest.test_case "random silent" `Quick test_prefetcher_random_silent;
        ] );
      ( "counters",
        [
          Alcotest.test_case "derived" `Quick test_counters_derived;
          Alcotest.test_case "sub/acc/reset" `Quick test_counters_sub_acc;
          Alcotest.test_case "topdown" `Quick test_topdown_normalised;
        ] );
      ( "platform",
        [
          Alcotest.test_case "table1" `Quick test_platform_table1;
          Alcotest.test_case "frequency scaling" `Quick test_platform_frequency_scaling;
          Alcotest.test_case "lookup" `Quick test_platform_lookup;
        ] );
      ( "memory",
        [
          Alcotest.test_case "latency ladder" `Quick test_memory_latency_ladder;
          Alcotest.test_case "attribution" `Quick test_memory_counters_attribution;
          Alcotest.test_case "set_counter" `Quick test_memory_set_counter;
          Alcotest.test_case "coherence" `Quick test_memory_coherence;
          Alcotest.test_case "inst side" `Quick test_memory_inst_side;
        ] );
      ( "core_model",
        [
          Alcotest.test_case "serial vs parallel" `Quick test_core_serial_vs_parallel;
          Alcotest.test_case "port contention" `Quick test_core_port_contention;
          Alcotest.test_case "memory latency" `Quick test_core_memory_latency_hurts;
          Alcotest.test_case "pointer chase" `Quick test_core_pointer_chase_serialises;
          Alcotest.test_case "inst counting" `Quick test_core_counts_insts;
          Alcotest.test_case "branch counting" `Quick test_core_branches_counted;
          Alcotest.test_case "width factor" `Quick test_core_width_factor;
          Alcotest.test_case "rep scaling" `Quick test_core_rep_string_scales;
          Alcotest.test_case "topdown backend" `Quick test_core_topdown_accumulates;
        ] );
    ]
