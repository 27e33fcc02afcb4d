(* Tests for the profilers: instruction mix, working sets (Eqs. 1/2),
   branches, dependencies, syscalls, skeleton detection. *)
open Ditto_profile
open Ditto_isa
open Ditto_app
module Rng = Ditto_util.Rng

let check_close msg tolerance expected actual =
  if Float.abs (expected -. actual) > tolerance then
    Alcotest.failf "%s: expected %g within %g, got %g" msg expected tolerance actual

let space = Layout.space ~tier_index:0 ~heap_bytes:(1 lsl 22) ~shared_bytes:(1 lsl 16)

let tier_of_blocks ?(request_bytes = 64) blocks =
  let handler _rng _req = List.map (fun (b, i) -> Spec.Compute (b, i)) blocks in
  Spec.tier ~name:"t" ~request_bytes ~heap_bytes:(1 lsl 22) ~shared_bytes:(1 lsl 16) ~handler ()

(* {1 Instmix} *)

let test_instmix_counts () =
  let temps =
    [
      Block.temp (Iform.by_name "ADD_GPR64_GPR64") ~dst:0 ~srcs:[| 1 |];
      Block.temp (Iform.by_name "ADD_GPR64_GPR64") ~dst:2 ~srcs:[| 3 |];
      Block.temp (Iform.by_name "IMUL_GPR64_GPR64") ~dst:4 ~srcs:[| 5 |];
    ]
  in
  let b = Block.make ~label:"m" ~code_base:space.Layout.code_base temps in
  let obs, fin = Instmix.observer () in
  Stream.drive ~tier:(tier_of_blocks [ (b, 10) ]) ~requests:5 ~seed:1 [ obs ];
  let t = fin () in
  check_close "insts per request" 1e-9 30.0 t.Instmix.insts_per_request;
  let add = Iform.by_name "ADD_GPR64_GPR64" and mul = Iform.by_name "IMUL_GPR64_GPR64" in
  Alcotest.(check int) "adds" 100 (List.assoc add.Iform.id t.Instmix.iform_counts);
  Alcotest.(check int) "muls" 50 (List.assoc mul.Iform.id t.Instmix.iform_counts)

let test_instmix_clusters_similar_together () =
  let temps =
    [
      Block.temp (Iform.by_name "ADD_GPR64_GPR64") ~dst:0 ~srcs:[| 1 |];
      Block.temp (Iform.by_name "SUB_GPR64_GPR64") ~dst:2 ~srcs:[| 3 |];
      Block.temp (Iform.by_name "DIVSD_XMM_XMM") ~dst:16 ~srcs:[| 17 |];
    ]
  in
  let b = Block.make ~label:"c" ~code_base:space.Layout.code_base temps in
  let obs, fin = Instmix.observer () in
  Stream.drive ~tier:(tier_of_blocks [ (b, 4) ]) ~requests:4 ~seed:2 [ obs ];
  let t = fin () in
  let add = (Iform.by_name "ADD_GPR64_GPR64").Iform.id in
  let sub = (Iform.by_name "SUB_GPR64_GPR64").Iform.id in
  let divsd = (Iform.by_name "DIVSD_XMM_XMM").Iform.id in
  let cluster_of id = List.find (fun (ids, _) -> List.mem id ids) t.Instmix.clusters in
  Alcotest.(check bool) "add and sub share a cluster" true
    (fst (cluster_of add) == fst (cluster_of sub));
  Alcotest.(check bool) "divsd clusters separately" true
    (fst (cluster_of add) != fst (cluster_of divsd))

let test_instmix_rep_stats () =
  let b =
    Block.make ~label:"r" ~code_base:space.Layout.code_base
      [
        Block.temp (Iform.by_name "REP_MOVSB") ~srcs:[| 6 |] ~rep_count:2048
          ~mem:(Block.Seq_stride { region = space.Layout.heap; start = 0; stride = 64; span = 1 lsl 20 });
        Block.temp (Iform.by_name "ADD_GPR64_GPR64") ~dst:0 ~srcs:[| 1 |];
      ]
  in
  let obs, fin = Instmix.observer () in
  Stream.drive ~tier:(tier_of_blocks [ (b, 1) ]) ~requests:8 ~seed:3 [ obs ];
  let t = fin () in
  check_close "rep mean count" 1e-9 2048.0 t.Instmix.rep_mean_count;
  check_close "rep fraction" 1e-9 0.5 t.Instmix.rep_fraction

(* Sampling an observed mix draws only its iforms (IMUL, so the
   ADD_GPR64_GPR64 default of an empty mix cannot pass for a draw), and
   an empty mix yields the default without consuming the RNG. *)
let test_instmix_sampler () =
  let temps = [ Block.temp (Iform.by_name "IMUL_GPR64_GPR64") ~dst:0 ~srcs:[| 1 |] ] in
  let b = Block.make ~label:"s" ~code_base:space.Layout.code_base temps in
  let obs, fin = Instmix.observer () in
  Stream.drive ~tier:(tier_of_blocks [ (b, 4) ]) ~requests:4 ~seed:4 [ obs ];
  let t = fin () in
  let rng = Rng.create 5 in
  let sample = Instmix.iform_sampler t in
  for _ = 1 to 20 do
    Alcotest.(check string) "only observed iform sampled" "IMUL_GPR64_GPR64"
      (sample rng).Iform.name
  done;
  let empty = Instmix.iform_sampler { t with Instmix.clusters = [] } in
  let before = Rng.float (Rng.copy rng) 1.0 in
  Alcotest.(check string) "empty mix default" "ADD_GPR64_GPR64" (empty rng).Iform.name;
  Alcotest.(check (float 0.0)) "empty mix draws nothing" before (Rng.float rng 1.0)

(* {1 Working sets (Eq. 1 and Eq. 2)} *)

(* The sweep's touch-allocated sets against [Ditto_uarch.Cache]'s LRU on
   the same geometry. Streams draw most lines from a few hot sets with
   tags spanning a few times the associativity, so sets fill, hit and
   evict. *)
let prop_sweep_matches_cache =
  let case =
    QCheck.Gen.(
      let* assoc = oneofl [ 1; 2; 4; 8; 16 ] in
      let* sets = map (fun k -> 1 lsl k) (int_range 0 12) in
      let* hot = list_size (int_range 1 3) (int_bound (sets - 1)) in
      let addr =
        frequency
          [
            ( 9,
              map3
                (fun set tag off -> ((((tag * sets) + set) * 64) + off))
                (oneofl hot) (int_bound ((3 * assoc) + 1)) (int_bound 63) );
            (1, int_bound (1 lsl 30));
          ]
      in
      let* stream = list_size (int_range 1 2000) addr in
      return (assoc, sets, stream))
  in
  let print (assoc, sets, stream) =
    Printf.sprintf "assoc=%d sets=%d stream of %d" assoc sets (List.length stream)
  in
  QCheck.Test.make ~name:"sweep cache matches Cache LRU" ~count:300 (QCheck.make ~print case)
    (fun (assoc, sets, stream) ->
      let sweep = Working_set.Sweep.create ~sets ~assoc in
      let cache = Ditto_uarch.Cache.create ~size_bytes:(sets * assoc * 64) ~assoc () in
      List.for_all
        (fun a -> Working_set.Sweep.access sweep a = Ditto_uarch.Cache.access cache a)
        stream)

let test_eq1_pure () =
  (* H(64)=100, H(128)=150, H(256)=150: A(64)=100, A(128)=50, A(256)=0 *)
  let a = Working_set.eq1 ~requests:10 [ (6, 1000); (7, 1500); (8, 1500) ] in
  Alcotest.(check (list (pair int (float 1e-9))))
    "Eq.1"
    [ (6, 100.0); (7, 50.0); (8, 0.0) ]
    a

let test_eq1_residual () =
  (* 2000 total accesses, only 1500 ever hit: the 500 streaming accesses
     land on the largest working set. *)
  let a =
    Working_set.eq1 ~total_accesses:2000 ~requests:10 [ (6, 1000); (7, 1500); (8, 1500) ]
  in
  Alcotest.(check (float 1e-9)) "residual on top bin" 50.0 (List.assoc 8 a)

let test_eq2_pure () =
  (* i-hits: H(64)=10, H(128)=40, total accesses 40: E(128)=16*30=480/req...
     requests=1 for clarity. *)
  let e = Working_set.eq2 ~requests:1 [ (6, 10); (7, 40) ] in
  Alcotest.(check (float 1e-9)) "E(128)" 480.0 (List.assoc 7 e);
  (* base bucket: 16*40 - 480 = 160 *)
  Alcotest.(check (float 1e-9)) "E(64)" 160.0 (List.assoc 6 e)

let test_working_set_small_loop () =
  (* A loop over a 2KB window must land its accesses in the <=2KB bins. *)
  let temps =
    List.init 8 (fun i ->
        Block.temp (Iform.by_name "MOV_GPR64_MEM") ~dst:(i mod 8) ~srcs:[| 1 |]
          ~mem:(Block.Seq_stride { region = space.Layout.heap; start = 0; stride = 64; span = 2048 }))
  in
  let b = Block.make ~label:"w" ~code_base:space.Layout.code_base temps in
  let obs, fin = Working_set.observer ~max_log2:22 () in
  Stream.drive ~tier:(tier_of_blocks [ (b, 64) ]) ~requests:4 ~seed:6 [ obs ];
  let t = fin () in
  let small, large =
    List.partition (fun (l, _) -> l <= 11) t.Working_set.d_working_sets
  in
  let mass = List.fold_left (fun a (_, x) -> a +. x) 0.0 in
  Alcotest.(check bool) "mass concentrated at <=2KB" true (mass small > 10.0 *. mass large)

let test_working_set_streaming_residual () =
  (* Streaming a 4MB region with no reuse: accesses assigned to the top bin. *)
  let temps =
    [ Block.temp (Iform.by_name "MOV_GPR64_MEM") ~dst:0 ~srcs:[| 1 |]
        ~mem:(Block.Seq_stride { region = space.Layout.heap; start = 0; stride = 64; span = 1 lsl 22 }) ]
  in
  let b = Block.make ~label:"st" ~code_base:space.Layout.code_base temps in
  let obs, fin = Working_set.observer ~max_log2:22 () in
  Stream.drive ~tier:(tier_of_blocks [ (b, 100) ]) ~requests:4 ~seed:7 [ obs ];
  let t = fin () in
  let top = List.assoc 22 t.Working_set.d_working_sets in
  Alcotest.(check bool) "streaming mass on top bin" true (top > 50.0)

let test_working_set_ratios () =
  let regular =
    Block.temp (Iform.by_name "MOV_GPR64_MEM") ~dst:0 ~srcs:[| 1 |]
      ~mem:(Block.Seq_stride { region = space.Layout.heap; start = 0; stride = 64; span = 1 lsl 20 })
  in
  let irregular =
    Block.temp (Iform.by_name "MOV_GPR64_MEM") ~dst:2 ~srcs:[| 1 |]
      ~mem:(Block.Rand_uniform { region = space.Layout.heap; start = 0; span = 1 lsl 20 })
  in
  let store =
    Block.temp (Iform.by_name "MOV_MEM_GPR64") ~srcs:[| 3 |]
      ~mem:(Block.Fixed_offset { region = space.Layout.shared; offset = 0 })
  in
  let b = Block.make ~label:"rat" ~code_base:space.Layout.code_base [ regular; irregular; store ] in
  let obs, fin = Working_set.observer ~max_log2:22 () in
  Stream.drive ~tier:(tier_of_blocks [ (b, 200) ]) ~requests:2 ~seed:8 [ obs ];
  let t = fin () in
  check_close "half the loads are regular" 0.05 0.5 t.Working_set.regular_ratio;
  check_close "one third writes" 0.01 (1.0 /. 3.0) t.Working_set.write_ratio;
  check_close "one third shared" 0.01 (1.0 /. 3.0) t.Working_set.shared_ratio

(* {1 Branches} *)

let test_branch_quantize () =
  let s = Branches.quantize ~taken:512 ~transitions:64 ~total:1024 in
  Alcotest.(check int) "m=1 for 50%" 1 s.Branches.m;
  Alcotest.(check int) "n=4 for 1/16" 4 s.Branches.n;
  Alcotest.(check bool) "not inverted at 50%" false s.Branches.invert;
  let s2 = Branches.quantize ~taken:1000 ~transitions:8 ~total:1024 in
  Alcotest.(check bool) "mostly taken -> inverted" true s2.Branches.invert

let test_branch_profile_recovers_spec () =
  let b =
    Block.make ~label:"br" ~code_base:space.Layout.code_base
      [ Block.temp (Iform.by_name "JNZ_REL") ~branch:{ Block.m = 3; n = 5; invert = false } ]
  in
  let obs, fin = Branches.observer () in
  Stream.drive ~tier:(tier_of_blocks [ (b, 4096) ]) ~requests:2 ~seed:9 [ obs ];
  let t = fin () in
  Alcotest.(check int) "one static site" 1 t.Branches.static_branches;
  match t.Branches.sites with
  | [ (site, p) ] ->
      Alcotest.(check int) "m recovered" 3 site.Branches.m;
      Alcotest.(check int) "n recovered" 5 site.Branches.n;
      Alcotest.(check (float 1e-9)) "probability 1" 1.0 p
  | _ -> Alcotest.fail "expected a single site bin"

let test_branch_fraction () =
  let b =
    Block.make ~label:"bf" ~code_base:space.Layout.code_base
      [
        Block.temp (Iform.by_name "ADD_GPR64_GPR64") ~dst:0 ~srcs:[| 1 |];
        Block.temp (Iform.by_name "JZ_REL") ~branch:{ Block.m = 2; n = 2; invert = false };
      ]
  in
  let obs, fin = Branches.observer () in
  Stream.drive ~tier:(tier_of_blocks [ (b, 100) ]) ~requests:2 ~seed:10 [ obs ];
  let t = fin () in
  check_close "half the stream branches" 1e-9 0.5 t.Branches.branch_fraction

(* {1 Deps} *)

let test_deps_serial_chain () =
  let b =
    Block.make ~label:"chain" ~code_base:space.Layout.code_base
      [ Block.temp (Iform.by_name "ADD_GPR64_GPR64") ~dst:0 ~srcs:[| 0 |] ]
  in
  let obs, fin = Deps.observer () in
  Stream.drive ~tier:(tier_of_blocks [ (b, 500) ]) ~requests:2 ~seed:11 [ obs ];
  let t = fin () in
  Alcotest.(check bool) "RAW mass at distance 1 (bin 0)" true (t.Deps.raw.(0) > 0.9)

let test_deps_long_distance () =
  let temps =
    List.init 16 (fun i ->
        Block.temp (Iform.by_name "ADD_GPR64_GPR64") ~dst:(Block.gp (i mod 16 mod 12))
          ~srcs:[| Block.gp ((i + 1) mod 12) |])
  in
  let b = Block.make ~label:"ld" ~code_base:space.Layout.code_base temps in
  let obs, fin = Deps.observer () in
  Stream.drive ~tier:(tier_of_blocks [ (b, 100) ]) ~requests:2 ~seed:12 [ obs ];
  let t = fin () in
  Alcotest.(check bool) "long distances dominate" true (t.Deps.raw.(0) < 0.5)

let test_deps_chase_fraction () =
  let b =
    Block.make ~label:"cf" ~code_base:space.Layout.code_base
      [
        Block.temp (Iform.by_name "MOV_GPR64_MEM") ~dst:11 ~srcs:[| 11 |]
          ~mem:(Block.Chase { region = space.Layout.heap; start = 0; span = 1 lsl 20 });
        Block.temp (Iform.by_name "MOV_GPR64_MEM") ~dst:0 ~srcs:[| 1 |]
          ~mem:(Block.Rand_uniform { region = space.Layout.heap; start = 0; span = 1 lsl 20 });
      ]
  in
  let obs, fin = Deps.observer () in
  Stream.drive ~tier:(tier_of_blocks [ (b, 200) ]) ~requests:2 ~seed:13 [ obs ];
  let t = fin () in
  check_close "half the loads chase" 1e-9 0.5 t.Deps.chase_fraction

let test_deps_bins () =
  Alcotest.(check int) "11 bins" 11 Deps.bins;
  Alcotest.(check int) "distance 1 -> bin 0" 0 (Deps.bin_of_distance 1);
  Alcotest.(check int) "distance 1024 -> bin 10" 10 (Deps.bin_of_distance 1024);
  Alcotest.(check int) "clamped" 10 (Deps.bin_of_distance 1_000_000)

(* {1 Syscalls} *)

let test_syscall_profile () =
  let handler rng req =
    [
      Spec.File_read { offset = 4096 * (req mod 100); bytes = 8192; random = true };
      Spec.Syscall Ditto_os.Syscall.Futex_wake;
    ]
    @ if Rng.float rng 1.0 < 0.5 then [ Spec.File_write { bytes = 1000 } ] else []
  in
  let tier = Spec.tier ~name:"s" ~handler () in
  let obs, fin = Syscalls.observer () in
  Stream.drive ~tier ~requests:200 ~seed:14 [ obs ];
  let t = fin () in
  (match t.Syscalls.file with
  | Some f ->
      check_close "reads per request" 1e-9 1.0 f.Syscalls.reads_per_request;
      Alcotest.(check int) "read bytes" 8192 f.Syscalls.read_bytes_mean;
      check_close "random ratio" 1e-9 1.0 f.Syscalls.random_ratio;
      check_close "writes per request" 0.1 0.5 f.Syscalls.writes_per_request;
      Alcotest.(check bool) "span covers offsets" true (f.Syscalls.offset_span >= 99 * 4096)
  | None -> Alcotest.fail "file profile missing");
  let futex =
    List.find
      (fun (k, _) -> Ditto_os.Syscall.name k = "futex_wake")
      t.Syscalls.misc
  in
  check_close "futex count" 1e-9 1.0 (snd futex)

let test_syscall_profile_empty () =
  let tier = Spec.tier ~name:"e" ~handler:(fun _ _ -> []) () in
  let obs, fin = Syscalls.observer () in
  Stream.drive ~tier ~requests:10 ~seed:15 [ obs ];
  let t = fin () in
  Alcotest.(check bool) "no file profile" true (t.Syscalls.file = None);
  Alcotest.(check int) "no misc" 0 (List.length t.Syscalls.misc)

(* {1 Skeleton} *)

let test_skeleton_call_tree () =
  let ops = [ Spec.Call { target = "x"; req_bytes = 1; resp_bytes = 1 } ] in
  let tree = Skeleton.call_tree_of_ops ~skeleton:[ "epoll_wait" ] ops in
  Alcotest.(check int) "root + epoll + rpc(+2 nested)" 5 (Ditto_util.Tree_edit.size tree)

let test_skeleton_detects_models () =
  let mk server =
    Spec.tier ~name:"d" ~server_model:server ~workers:3 ~handler:(fun _ _ -> []) ()
  in
  let d = Skeleton.detect (mk Spec.Io_multiplexing) ~samples:8 ~seed:16 in
  Alcotest.(check bool) "io multiplexing" true (d.Skeleton.server_model = Spec.Io_multiplexing);
  Alcotest.(check int) "workers" 3 d.Skeleton.worker_threads;
  let d2 = Skeleton.detect (mk Spec.Blocking) ~samples:8 ~seed:17 in
  Alcotest.(check bool) "blocking" true (d2.Skeleton.server_model = Spec.Blocking);
  let d3 = Skeleton.detect (mk Spec.Nonblocking) ~samples:8 ~seed:18 in
  Alcotest.(check bool) "nonblocking" true (d3.Skeleton.server_model = Spec.Nonblocking)

let test_skeleton_clusters_workers_and_background () =
  let tier =
    Spec.tier ~name:"bg" ~workers:4
      ~background:[ ("flush", 0.5) ]
      ~background_handler:(fun _ -> [ Spec.File_write { bytes = 100 } ])
      ~handler:(fun _ _ -> [ Spec.Syscall Ditto_os.Syscall.Gettime ])
      ()
  in
  let d = Skeleton.detect tier ~samples:16 ~seed:19 in
  Alcotest.(check int) "two thread classes: workers + timer" 2
    (List.length d.Skeleton.thread_classes);
  Alcotest.(check bool) "one class timer-triggered" true
    (List.exists (fun c -> c.Skeleton.trigger = `Timer) d.Skeleton.thread_classes);
  Alcotest.(check bool) "one class socket-triggered" true
    (List.exists (fun c -> c.Skeleton.trigger = `Socket) d.Skeleton.thread_classes)

(* {1 Tier_profile aggregate} *)

let test_tier_profile_aggregate () =
  let app = Ditto_apps.Redis.spec () in
  let tier = List.hd app.Spec.tiers in
  let p = Tier_profile.profile ~requests:60 ~seed:20 tier in
  Alcotest.(check string) "name" "redis" p.Tier_profile.tier_name;
  Alcotest.(check bool) "insts measured" true (p.Tier_profile.instmix.Instmix.insts_per_request > 100.0);
  Alcotest.(check bool) "branch sites found" true (p.Tier_profile.branches.Branches.static_branches > 10);
  Alcotest.(check bool) "d-mass present" true
    (List.exists (fun (_, a) -> a > 1.0) p.Tier_profile.working_set.Working_set.d_working_sets);
  Alcotest.(check bool) "pp renders" true
    (String.length (Format.asprintf "%a" Tier_profile.pp p) > 50)

let test_tier_profile_background () =
  let app = Ditto_apps.Mongodb.spec () in
  let tier = List.hd app.Spec.tiers in
  let p = Tier_profile.profile ~requests:30 ~seed:21 tier in
  Alcotest.(check bool) "background profiled" true (p.Tier_profile.background <> None)

let () =
  Alcotest.run "profile"
    [
      ( "instmix",
        [
          Alcotest.test_case "counts" `Quick test_instmix_counts;
          Alcotest.test_case "clusters" `Quick test_instmix_clusters_similar_together;
          Alcotest.test_case "rep stats" `Quick test_instmix_rep_stats;
          Alcotest.test_case "sampler" `Quick test_instmix_sampler;
        ] );
      ( "working_set",
        [
          Alcotest.test_case "eq1" `Quick test_eq1_pure;
          Alcotest.test_case "eq1 residual" `Quick test_eq1_residual;
          Alcotest.test_case "eq2" `Quick test_eq2_pure;
          Alcotest.test_case "small loop" `Quick test_working_set_small_loop;
          Alcotest.test_case "streaming residual" `Quick test_working_set_streaming_residual;
          Alcotest.test_case "ratios" `Quick test_working_set_ratios;
          QCheck_alcotest.to_alcotest prop_sweep_matches_cache;
        ] );
      ( "branches",
        [
          Alcotest.test_case "quantize" `Quick test_branch_quantize;
          Alcotest.test_case "recovers spec" `Quick test_branch_profile_recovers_spec;
          Alcotest.test_case "fraction" `Quick test_branch_fraction;
        ] );
      ( "deps",
        [
          Alcotest.test_case "serial chain" `Quick test_deps_serial_chain;
          Alcotest.test_case "long distance" `Quick test_deps_long_distance;
          Alcotest.test_case "chase fraction" `Quick test_deps_chase_fraction;
          Alcotest.test_case "bins" `Quick test_deps_bins;
        ] );
      ( "syscalls",
        [
          Alcotest.test_case "profile" `Quick test_syscall_profile;
          Alcotest.test_case "empty" `Quick test_syscall_profile_empty;
        ] );
      ( "skeleton",
        [
          Alcotest.test_case "call tree" `Quick test_skeleton_call_tree;
          Alcotest.test_case "detects models" `Quick test_skeleton_detects_models;
          Alcotest.test_case "clusters threads" `Quick test_skeleton_clusters_workers_and_background;
        ] );
      ( "tier_profile",
        [
          Alcotest.test_case "aggregate" `Quick test_tier_profile_aggregate;
          Alcotest.test_case "background" `Quick test_tier_profile_background;
        ] );
    ]
