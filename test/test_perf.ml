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
        ] );
      ( "alloc",
        [
          Alcotest.test_case "exec_block allocates nothing" `Quick test_exec_block_allocation_free;
          Alcotest.test_case "Tlb.access allocates nothing" `Quick test_tlb_allocation_free;
          Alcotest.test_case "Page_cache.read allocates nothing" `Quick
            test_page_cache_allocation_free;
          Alcotest.test_case "engine words per event" `Quick test_engine_event_words;
        ] );
      ( "golden",
        [
          Alcotest.test_case "exec_block counters and clocks" `Quick test_golden_exec_block;
          Alcotest.test_case "redis run counters and segments" `Slow test_golden_runner;
          Alcotest.test_case "registry profiles" `Slow test_golden_profiles;
          Alcotest.test_case "generated blocks" `Slow test_golden_generation;
        ] );
      ( "engine",
        [
          Alcotest.test_case "zero-delay FIFO order" `Quick test_engine_zero_delay_fifo;
          Alcotest.test_case "imm yields to earlier heap event" `Quick
            test_engine_imm_vs_heap_priority;
        ] );
    ]
