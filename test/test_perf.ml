(* The performance-architecture layer: result memoization (Ditto_uarch.Memo
   and its users), machine pooling, and the engine's immediate-event fast
   path. Every fast path is pinned bit-identical to its cold equivalent —
   the caches may only change wall-clock time, never a counter. *)

open Ditto_app
module Memo = Ditto_uarch.Memo
module Platform = Ditto_uarch.Platform
module Engine = Ditto_sim.Engine
module Pool = Ditto_util.Pool

(* {1 Memo semantics} *)

let test_memo_basic () =
  let m = Memo.create ~max_entries:4 () in
  let calls = ref 0 in
  let f k =
    Memo.find_or_add m k (fun () ->
        incr calls;
        k * 2)
  in
  Alcotest.(check int) "computed" 6 (f 3);
  Alcotest.(check int) "cached" 6 (f 3);
  Alcotest.(check int) "one computation" 1 !calls;
  let s = Memo.stats m in
  Alcotest.(check int) "hits" 1 s.Memo.hits;
  Alcotest.(check int) "misses" 1 s.Memo.misses

let test_memo_cap () =
  let m = Memo.create ~max_entries:2 () in
  Memo.add m 1 "a";
  Memo.add m 2 "b";
  Memo.add m 3 "c";
  Alcotest.(check int) "capped" 2 (Memo.stats m).Memo.entries;
  Alcotest.(check bool) "oldest evicted" true (Memo.find_opt m 1 = None);
  Alcotest.(check bool) "newest kept" true (Memo.find_opt m 3 = Some "c")

let test_memo_invalidate () =
  let m = Memo.create () in
  List.iter (fun k -> Memo.add m k k) [ 1; 2; 3; 4 ];
  let dropped = Memo.invalidate m (fun k -> k mod 2 = 0) in
  Alcotest.(check int) "dropped the matching group" 2 dropped;
  Alcotest.(check bool) "untouched key survives" true (Memo.find_opt m 3 = Some 3);
  Alcotest.(check bool) "invalidated key gone" true (Memo.find_opt m 2 = None);
  Alcotest.(check int) "invalidations counted" 2 (Memo.stats m).Memo.invalidations

let test_memo_disable () =
  let m = Memo.create () in
  Memo.add m 1 10;
  Memo.set_enabled false;
  Fun.protect
    ~finally:(fun () -> Memo.set_enabled true)
    (fun () ->
      Alcotest.(check bool) "disabled lookup misses" true (Memo.find_opt m 1 = None);
      let calls = ref 0 in
      ignore
        (Memo.find_or_add m 1 (fun () ->
             incr calls;
             99));
      ignore
        (Memo.find_or_add m 1 (fun () ->
             incr calls;
             99));
      Alcotest.(check int) "thunk always runs when disabled" 2 !calls);
  Alcotest.(check bool) "re-enabled sees the old entry" true (Memo.find_opt m 1 = Some 10)

(* Keys embed the whole platform record: any platform change — here just
   +0.1 GHz — must miss, and the fingerprint must move with it. *)
let test_memo_platform_key () =
  let m = Memo.create () in
  Memo.add m (Platform.a, 42) "cached";
  let faster = Platform.with_frequency Platform.a (Platform.a.Platform.freq_ghz +. 0.1) in
  Alcotest.(check bool) "identical platform hits" true
    (Memo.find_opt m (Platform.a, 42) = Some "cached");
  Alcotest.(check bool) "changed platform misses" true (Memo.find_opt m (faster, 42) = None);
  Alcotest.(check bool) "changed seed misses" true (Memo.find_opt m (Platform.a, 43) = None);
  Alcotest.(check bool) "fingerprint tracks the change" true
    (Platform.fingerprint Platform.a <> Platform.fingerprint faster);
  Alcotest.(check int) "fingerprint is structural" (Platform.fingerprint Platform.a)
    (Platform.fingerprint { Platform.a with Platform.name = Platform.a.Platform.name })

(* {1 Runner: measurement memo + machine pooling} *)

let small_load = Service.load ~qps:15000.0 ~open_loop:false ~duration:0.15 ()

(* Two consecutive runs of the same spec: the second reuses pooled machines
   and hits the measurement memo, and must still be byte-identical. *)
let test_warm_rerun_identical () =
  let app = Ditto_apps.Redis.spec () in
  let cfg = Runner.config ~requests:40 Platform.a in
  let o1 = Runner.run cfg ~load:small_load app in
  let o2 = Runner.run cfg ~load:small_load app in
  Alcotest.(check bool) "per-tier metrics identical" true (o1.Runner.per_tier = o2.Runner.per_tier);
  Alcotest.(check bool) "end-to-end identical" true (o1.Runner.end_to_end = o2.Runner.end_to_end)

(* The warm (memoized) run must match a cold run with memoization globally
   disabled — the cache can only save time, never change a counter. *)
let test_memo_matches_cold () =
  let app = Ditto_apps.Redis.spec () in
  let cfg = Runner.config ~requests:40 Platform.a in
  let warm =
    ignore (Runner.run cfg ~load:small_load app);
    Runner.run cfg ~load:small_load app
  in
  Memo.set_enabled false;
  let cold =
    Fun.protect
      ~finally:(fun () -> Memo.set_enabled true)
      (fun () -> Runner.run cfg ~load:small_load app)
  in
  Alcotest.(check bool) "memoized == cold per-tier" true
    (warm.Runner.per_tier = cold.Runner.per_tier);
  Alcotest.(check bool) "memoized == cold end-to-end" true
    (warm.Runner.end_to_end = cold.Runner.end_to_end)

(* A cached measurement never survives a platform change: rerunning on the
   same platform hits, switching to platform B only misses. *)
let test_runner_memo_platform_isolation () =
  let app = Ditto_apps.Redis.spec () in
  ignore (Runner.run (Runner.config ~requests:30 Platform.a) ~load:small_load app);
  let s1 = Runner.measure_memo_stats () in
  ignore (Runner.run (Runner.config ~requests:30 Platform.a) ~load:small_load app);
  let s2 = Runner.measure_memo_stats () in
  Alcotest.(check bool) "same-platform rerun hits" true (s2.Memo.hits > s1.Memo.hits);
  ignore (Runner.run (Runner.config ~requests:30 Platform.b) ~load:small_load app);
  let s3 = Runner.measure_memo_stats () in
  Alcotest.(check int) "platform change never hits" s2.Memo.hits s3.Memo.hits;
  Alcotest.(check bool) "platform change recomputes" true (s3.Memo.misses > s2.Memo.misses)

(* {1 Tuner: incremental revalidation}

   The tuner re-simulates only tiers whose knob vector changed, reusing
   per-(tier, params) cached measurements for the rest — including frozen
   tiers and speculative candidates that perturb a single knob group. The
   whole trajectory (every iteration's errors and kept knob vector) must be
   bit-identical with the caches disabled, i.e. to cold full
   re-simulation of every candidate. *)
let tune_once () =
  let app = Ditto_apps.Redis.spec () in
  let load = Service.load ~qps:20000.0 ~open_loop:false ~duration:0.25 () in
  let cfg = Runner.config ~requests:50 ~seed:11 Platform.a in
  let reference = Runner.run cfg ~load app in
  let profile = Ditto_profile.Tier_profile.profile_app ~requests:40 ~seed:12 app in
  let pool = Pool.create ~size:1 () in
  Fun.protect
    ~finally:(fun () -> Pool.shutdown pool)
    (fun () ->
      Ditto_tune.Tuner.tune ~max_iterations:6 ~seed:5 ~pool ~config:cfg ~load ~reference
        ~profile ())

let test_tuner_memo_bitidentical () =
  let _, warm = tune_once () in
  Memo.set_enabled false;
  let _, cold = Fun.protect ~finally:(fun () -> Memo.set_enabled true) tune_once in
  let module T = Ditto_tune.Tuner in
  Alcotest.(check int) "same iteration count"
    (List.length warm.T.iterations)
    (List.length cold.T.iterations);
  Alcotest.(check bool) "identical final params" true (warm.T.final_params = cold.T.final_params);
  List.iter2
    (fun (w : T.iteration) (c : T.iteration) ->
      Alcotest.(check int) "same winner" w.T.winner c.T.winner;
      Alcotest.(check bool) "identical per-metric errors" true (w.T.errors = c.T.errors);
      Alcotest.(check bool) "identical kept params" true (w.T.params = c.T.params))
    warm.T.iterations cold.T.iterations;
  Alcotest.(check bool) "identical attribution" true (warm.T.attribution = cold.T.attribution)

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
   core 1 left dirty and take the coherence path. *)
let test_exec_block_allocation_free () =
  let mem = Ditto_uarch.Memory.create Platform.a ~ncores:2 in
  let core = Core_model.create mem ~core:0 and other = Core_model.create mem ~core:1 in
  let rng = Ditto_util.Rng.create 7 in
  let block = mixed_block () in
  Core_model.exec_block other ~rng block ~iterations:20;
  Core_model.exec_block core ~rng block ~iterations:20;
  Core_model.exec_block other ~rng block ~iterations:20;
  let words = minor_words (fun () -> Core_model.exec_block core ~rng block ~iterations:50) in
  Alcotest.(check (float 0.0)) "exec_block minor words" 0.0 words;
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
      ( "memo",
        [
          Alcotest.test_case "hit/miss accounting" `Quick test_memo_basic;
          Alcotest.test_case "FIFO cap" `Quick test_memo_cap;
          Alcotest.test_case "group invalidation" `Quick test_memo_invalidate;
          Alcotest.test_case "global disable" `Quick test_memo_disable;
          Alcotest.test_case "platform-sensitive keys" `Quick test_memo_platform_key;
        ] );
      ( "runner",
        [
          Alcotest.test_case "warm rerun bit-identical" `Slow test_warm_rerun_identical;
          Alcotest.test_case "memoized == cold" `Slow test_memo_matches_cold;
          Alcotest.test_case "platform isolation" `Slow test_runner_memo_platform_isolation;
        ] );
      ( "tuner",
        [ Alcotest.test_case "memo on/off trajectory identical" `Slow test_tuner_memo_bitidentical ] );
      ( "alloc",
        [
          Alcotest.test_case "exec_block allocates nothing" `Quick test_exec_block_allocation_free;
          Alcotest.test_case "Tlb.access allocates nothing" `Quick test_tlb_allocation_free;
          Alcotest.test_case "Page_cache.read allocates nothing" `Quick
            test_page_cache_allocation_free;
          Alcotest.test_case "engine words per event" `Quick test_engine_event_words;
        ] );
      ( "engine",
        [
          Alcotest.test_case "zero-delay FIFO order" `Quick test_engine_zero_delay_fifo;
          Alcotest.test_case "imm yields to earlier heap event" `Quick
            test_engine_imm_vs_heap_priority;
        ] );
    ]
