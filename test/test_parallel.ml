(* The multicore execution layer: Pool semantics (ordering, exception
   propagation, nesting, sizing) and the end-to-end guarantee the rest of
   the codebase builds on — a clone/validate pipeline run is bit-identical
   whatever the pool size, because parallelism lives across runs and every
   run builds its own engine, RNG streams and hardware state. *)
open Ditto_app
module Pool = Ditto_util.Pool
module Pipeline = Ditto_core.Pipeline
module Platform = Ditto_uarch.Platform

let with_pool size f =
  let pool = Pool.create ~size () in
  Fun.protect ~finally:(fun () -> Pool.shutdown pool) (fun () -> f pool)

(* {1 Pool.map semantics} *)

let test_map_order size () =
  with_pool size (fun pool ->
      let xs = List.init 25 (fun i -> i) in
      Alcotest.(check (list int))
        "order preserved" (List.map (fun x -> x * x) xs)
        (Pool.map pool (fun x -> x * x) xs);
      Alcotest.(check (list int)) "empty" [] (Pool.map pool (fun x -> x) []);
      Alcotest.(check (list int)) "singleton" [ 9 ] (Pool.map pool (fun x -> x + 2) [ 7 ]);
      Alcotest.(check int) "size" size (Pool.size pool))

let test_map_exception size () =
  with_pool size (fun pool ->
      Alcotest.check_raises "re-raised at join" (Failure "boom") (fun () ->
          ignore (Pool.map pool (fun x -> if x = 7 then failwith "boom" else x) [ 1; 7; 9 ]));
      (* the pool survives a failed batch *)
      Alcotest.(check (list int)) "usable after failure" [ 2; 4 ]
        (Pool.map pool (fun x -> 2 * x) [ 1; 2 ]))

(* {2 Failure paths}

   The speculative tuner and the chaos harness lean on these guarantees: a
   raising task must not leak domains or wedge the joiner, and when several
   candidates fail the winner is decided by submission order, not by which
   domain happened to crash first. *)

exception Boom of int

let test_map_exception_order size () =
  (* Task 0 fails slowly, task 1 fails instantly: with 2+ domains task 1's
     exception lands first in wall-clock order, but the join must still
     re-raise task 0's — the deterministic, pool-size-independent choice. *)
  with_pool size (fun pool ->
      Alcotest.check_raises "lowest submission index wins" (Boom 0) (fun () ->
          ignore
            (Pool.map pool
               (fun i ->
                 if i = 0 then begin
                   Unix.sleepf 0.05;
                   raise (Boom 0)
                 end
                 else raise (Boom i))
               [ 0; 1; 2; 3 ])))

let test_map_failure_runs_batch_to_completion size () =
  (* One failure must not cancel siblings: every task still executes
     exactly once (joiners would otherwise wait on abandoned slots). *)
  with_pool size (fun pool ->
      let ran = Array.make 8 false in
      (try
         ignore
           (Pool.map pool
              (fun i ->
                ran.(i) <- true;
                if i = 3 then failwith "mid-batch")
              (List.init 8 (fun i -> i)))
       with Failure _ -> ());
      Alcotest.(check bool) "all siblings ran" true (Array.for_all Fun.id ran))

let test_nested_map_failure size () =
  (* An inner map raising from inside a pool task: the inner join re-raises
     on the worker, the outer join re-raises to the caller, and nothing
     deadlocks — the helping scheme keeps draining through the unwind. *)
  with_pool size (fun pool ->
      Alcotest.check_raises "inner failure surfaces" (Boom 42) (fun () ->
          ignore
            (Pool.map pool
               (fun i ->
                 List.length
                   (Pool.map pool
                      (fun j -> if i = 2 && j = 1 then raise (Boom 42) else j)
                      [ 0; 1; 2 ]))
               (List.init 6 (fun i -> i))));
      (* repeated failing batches leave no wedged worker behind *)
      for _ = 1 to 3 do
        try ignore (Pool.map pool (fun () -> failwith "again") [ (); (); () ])
        with Failure _ -> ()
      done;
      Alcotest.(check (list int)) "pool still maps" [ 1; 2; 3 ]
        (Pool.map pool succ [ 0; 1; 2 ]))

let test_both_failure () =
  with_pool 4 (fun pool ->
      Alcotest.check_raises "left thunk's exception" (Boom 1) (fun () ->
          ignore (Pool.both pool (fun () -> raise (Boom 1)) (fun () -> 2)));
      let a, b = Pool.both pool (fun () -> 5) (fun () -> 6) in
      Alcotest.(check (pair int int)) "usable after failure" (5, 6) (a, b))

let test_both () =
  with_pool 4 (fun pool ->
      let a, b = Pool.both pool (fun () -> 1 + 2) (fun () -> "x" ^ "y") in
      Alcotest.(check int) "left" 3 a;
      Alcotest.(check string) "right" "xy" b)

let test_nested_map () =
  (* A map issued from inside a pool task (clone -> tuner candidates) must
     not deadlock even when tasks outnumber domains: the submitting domain
     helps drain the queue. *)
  with_pool 4 (fun pool ->
      let sums =
        Pool.map pool
          (fun i ->
            List.fold_left ( + ) 0 (Pool.map pool (fun j -> (10 * i) + j) [ 1; 2; 3; 4; 5 ]))
          (List.init 8 (fun i -> i))
      in
      Alcotest.(check (list int))
        "nested results"
        (List.init 8 (fun i -> (50 * i) + 15))
        sums)

(* {1 Stats: steal counts, busy and idle time} *)

let test_stats_accumulate () =
  let s0 = Pool.stats () in
  with_pool 2 (fun pool ->
      ignore
        (Pool.map pool
           (fun x ->
             Unix.sleepf 0.01;
             x)
           [ 1; 2; 3; 4 ]));
  let s1 = Pool.stats () in
  Alcotest.(check int) "batch queued" (s0.Pool.tasks_queued + 4) s1.Pool.tasks_queued;
  Alcotest.(check int) "every task ran on a worker or was stolen"
    (s0.Pool.tasks_by_workers + s0.Pool.tasks_stolen + 4)
    (s1.Pool.tasks_by_workers + s1.Pool.tasks_stolen);
  Alcotest.(check bool) "busy time covers the sleeps" true
    (s1.Pool.busy_seconds -. s0.Pool.busy_seconds >= 0.04);
  Alcotest.(check bool) "idle time monotonic" true
    (s1.Pool.idle_seconds >= s0.Pool.idle_seconds)

let test_stats_sequential_busy () =
  (* The sequential fallback still charges busy time (a 1-domain host would
     otherwise report zero parallel efficiency). *)
  let s0 = Pool.stats () in
  with_pool 1 (fun pool -> ignore (Pool.map pool (fun x -> Unix.sleepf 0.01; x) [ 1; 2 ]));
  let s1 = Pool.stats () in
  Alcotest.(check int) "nothing queued on the sequential path" s0.Pool.tasks_queued
    s1.Pool.tasks_queued;
  Alcotest.(check bool) "busy time accrues anyway" true
    (s1.Pool.busy_seconds -. s0.Pool.busy_seconds >= 0.02)

let test_env_sizing () =
  Unix.putenv "DITTO_DOMAINS" "3";
  Alcotest.(check int) "env size" 3 (Pool.default_size ());
  with_pool (Pool.default_size ()) (fun pool ->
      Alcotest.(check int) "create honors env via default_size" 3 (Pool.size pool));
  Unix.putenv "DITTO_DOMAINS" "0";
  Alcotest.(check bool) "clamped to >= 1" true (Pool.default_size () >= 1);
  Unix.putenv "DITTO_DOMAINS" "1"

(* {1 Pipeline determinism across pool sizes} *)

let det_load = Service.load ~qps:20000.0 ~open_loop:false ~duration:0.3 ()

let clone_with ?config_of pool =
  let app = Ditto_apps.Redis.spec () in
  let load = det_load in
  let r =
    Pipeline.clone ~pool ~requests:60 ~profile_requests:40 ~seed:7 ~platform:Platform.a ~load
      app
  in
  let v = Pipeline.validate ~pool ?config_of ~platform:Platform.a ~load ~label:"det" r in
  (r, v)

let seq_parallel =
  lazy
    (let seq = with_pool 1 clone_with in
     let par = with_pool 4 clone_with in
     (seq, par))

let test_clone_determinism () =
  let (r1, _), (r4, _) = Lazy.force seq_parallel in
  let params r =
    match r.Pipeline.tuning with
    | Some (rep : Ditto_tune.Tuner.report) -> rep.Ditto_tune.Tuner.final_params
    | None -> Alcotest.fail "tuning report missing"
  in
  Alcotest.(check bool) "identical final_params" true (params r1 = params r4);
  Alcotest.(check int) "same iteration count"
    (List.length (Option.get r1.Pipeline.tuning).Ditto_tune.Tuner.iterations)
    (List.length (Option.get r4.Pipeline.tuning).Ditto_tune.Tuner.iterations)

let test_validate_determinism () =
  let (_, v1), (_, v4) = Lazy.force seq_parallel in
  Alcotest.(check bool) "actual end-to-end identical" true
    (v1.Pipeline.actual_end_to_end = v4.Pipeline.actual_end_to_end);
  Alcotest.(check bool) "synthetic end-to-end identical" true
    (v1.Pipeline.synthetic_end_to_end = v4.Pipeline.synthetic_end_to_end);
  Alcotest.(check bool) "per-tier metrics identical" true
    (v1.Pipeline.actual = v4.Pipeline.actual && v1.Pipeline.synthetic = v4.Pipeline.synthetic)

(* A generated wide graph (40 tiers > the runner's 32-tier sharding
   threshold) goes down the tier-sharded measurement path; the shard split
   is keyed on tier index, not pool size, so the clone/validate pair must
   stay bit-identical between a sequential and a 4-domain pool. Untuned:
   the tuner's determinism is already covered by the redis matrix. *)
let synth_clone_with pool =
  let app = (Ditto_gen.Topology.generate (Ditto_gen.Topology.default ~tiers:40 ())).Ditto_gen.Topology.spec in
  let load = Service.load ~qps:120.0 ~open_loop:true ~duration:0.3 () in
  let r =
    Pipeline.clone ~pool ~tune:false ~requests:60 ~profile_requests:40 ~seed:7
      ~platform:Platform.a ~load app
  in
  let v = Pipeline.validate ~pool ~platform:Platform.a ~load ~label:"det" r in
  (r, v)

let test_synth_determinism () =
  let _, v1 = with_pool 1 synth_clone_with in
  let _, v4 = with_pool 4 synth_clone_with in
  Alcotest.(check bool) "sharded per-tier metrics identical" true
    (v1.Pipeline.actual = v4.Pipeline.actual && v1.Pipeline.synthetic = v4.Pipeline.synthetic);
  Alcotest.(check bool) "end-to-end identical" true
    (v1.Pipeline.actual_end_to_end = v4.Pipeline.actual_end_to_end
    && v1.Pipeline.synthetic_end_to_end = v4.Pipeline.synthetic_end_to_end)

let with_timeline p = Runner.config ~timeline:true p
let with_reqtrace p = Runner.config ~reqtrace:true p

(* Telemetry must be invisible to simulation results: the windowed
   collector only adds read-only, zero-virtual-time ticker events, so a
   telemetry-on run agrees bit-for-bit with the telemetry-off baseline
   ([seq_parallel]) and across pool sizes. *)
let telemetry_clone_with pool = clone_with ~config_of:with_timeline pool

let test_telemetry_invariance () =
  let (_, v_off), _ = Lazy.force seq_parallel in
  let _, v1 = with_pool 1 telemetry_clone_with in
  let _, v4 = with_pool 4 telemetry_clone_with in
  Alcotest.(check bool) "telemetry-on matches telemetry-off baseline" true
    (v1.Pipeline.actual = v_off.Pipeline.actual
    && v1.Pipeline.synthetic = v_off.Pipeline.synthetic
    && v1.Pipeline.actual_end_to_end = v_off.Pipeline.actual_end_to_end
    && v1.Pipeline.synthetic_end_to_end = v_off.Pipeline.synthetic_end_to_end);
  Alcotest.(check bool) "telemetry-on identical across pool sizes" true
    (v1.Pipeline.actual = v4.Pipeline.actual
    && v1.Pipeline.synthetic = v4.Pipeline.synthetic
    && v1.Pipeline.actual_end_to_end = v4.Pipeline.actual_end_to_end
    && v1.Pipeline.synthetic_end_to_end = v4.Pipeline.synthetic_end_to_end)

(* Request tracing must be just as invisible: sampling hashes a private
   per-run sequence counter (never a simulation RNG stream) and recording
   performs no engine effects, so a tracing-on run matches the
   tracing-off baseline bit-for-bit — and the sampled traces themselves
   are pinned across pool sizes. *)
let reqtrace_clone_with pool = clone_with ~config_of:with_reqtrace pool

let test_reqtrace_invariance () =
  let (_, v_off), _ = Lazy.force seq_parallel in
  let _, v1 = with_pool 1 reqtrace_clone_with in
  let _, v4 = with_pool 4 reqtrace_clone_with in
  Alcotest.(check bool) "tracing-on matches tracing-off baseline" true
    (v1.Pipeline.actual = v_off.Pipeline.actual
    && v1.Pipeline.synthetic = v_off.Pipeline.synthetic
    && v1.Pipeline.actual_end_to_end = v_off.Pipeline.actual_end_to_end
    && v1.Pipeline.synthetic_end_to_end = v_off.Pipeline.synthetic_end_to_end);
  Alcotest.(check bool) "tracing-on identical across pool sizes" true
    (v1.Pipeline.actual = v4.Pipeline.actual
    && v1.Pipeline.synthetic = v4.Pipeline.synthetic
    && v1.Pipeline.actual_end_to_end = v4.Pipeline.actual_end_to_end
    && v1.Pipeline.synthetic_end_to_end = v4.Pipeline.synthetic_end_to_end);
  let jaeger_of (v : Pipeline.comparison) =
    match v.Pipeline.actual_service.Service.reqtrace with
    | Some c ->
        Alcotest.(check bool) "sampled some requests" true (Ditto_obs.Reqtrace.sampled c > 0);
        Ditto_util.Jsonx.to_string (Ditto_obs.Reqtrace.jaeger c)
    | None -> Alcotest.fail "tracing enabled but no collector on the actual run"
  in
  Alcotest.(check bool) "sampled span trees bit-identical across pool sizes" true
    (jaeger_of v1 = jaeger_of v4)

(* Recorders are per-run settings: two validations of one clone in flight
   at once on a 2-domain pool, one recording timelines and one tracing
   requests, each get exactly the collector they asked for, and neither
   perturbs the other's (or a recorder-free run's) metrics. *)
let test_recorders_per_run () =
  let (r, v_off), _ = Lazy.force seq_parallel in
  let tl, rq =
    with_pool 2 (fun pool ->
        let validate config_of =
          Pipeline.validate ~pool ~config_of ~platform:Platform.a ~load:det_load ~label:"det" r
        in
        Pool.both pool (fun () -> validate with_timeline) (fun () -> validate with_reqtrace))
  in
  let collectors (v : Pipeline.comparison) =
    List.map
      (fun (s : Service.result) -> (s.Service.timeline <> None, s.Service.reqtrace <> None))
      [ v.Pipeline.actual_service; v.Pipeline.synthetic_service ]
  in
  Alcotest.(check (list (pair bool bool)))
    "timeline run: timelines only" [ (true, false); (true, false) ] (collectors tl);
  Alcotest.(check (list (pair bool bool)))
    "reqtrace run: request traces only" [ (false, true); (false, true) ] (collectors rq);
  List.iter
    (fun (what, (v : Pipeline.comparison)) ->
      Alcotest.(check bool) (what ^ " per-tier metrics match recorders-off run") true
        (v.Pipeline.actual = v_off.Pipeline.actual
        && v.Pipeline.synthetic = v_off.Pipeline.synthetic))
    [ ("timeline", tl); ("reqtrace", rq) ]

(* A constant rate profile must be a true no-op: the arrival loop takes
   the pre-profile code path, so a profile-carrying load agrees
   bit-for-bit with the profile-free baseline ([seq_parallel]) and across
   pool sizes. *)
let constant_profile_clone_with pool =
  let app = Ditto_apps.Redis.spec () in
  let load =
    Service.load ~qps:20000.0 ~open_loop:false ~duration:0.3 ~profile:Rate.constant ()
  in
  let r =
    Pipeline.clone ~pool ~requests:60 ~profile_requests:40 ~seed:7 ~platform:Platform.a ~load
      app
  in
  (r, Pipeline.validate ~pool ~platform:Platform.a ~load ~label:"det" r)

let test_constant_profile_invariance () =
  let (_, v_off), _ = Lazy.force seq_parallel in
  let _, v1 = with_pool 1 constant_profile_clone_with in
  let _, v4 = with_pool 4 constant_profile_clone_with in
  Alcotest.(check bool) "constant profile matches profile-free baseline" true
    (v1.Pipeline.actual = v_off.Pipeline.actual
    && v1.Pipeline.synthetic = v_off.Pipeline.synthetic
    && v1.Pipeline.actual_end_to_end = v_off.Pipeline.actual_end_to_end
    && v1.Pipeline.synthetic_end_to_end = v_off.Pipeline.synthetic_end_to_end);
  Alcotest.(check bool) "constant profile identical across pool sizes" true
    (v1.Pipeline.actual = v4.Pipeline.actual
    && v1.Pipeline.synthetic = v4.Pipeline.synthetic
    && v1.Pipeline.actual_end_to_end = v4.Pipeline.actual_end_to_end
    && v1.Pipeline.synthetic_end_to_end = v4.Pipeline.synthetic_end_to_end)

let test_speculation_reported () =
  let (r1, _), _ = Lazy.force seq_parallel in
  match r1.Pipeline.tuning with
  | Some rep -> Alcotest.(check int) "default K" 2 rep.Ditto_tune.Tuner.speculation
  | None -> Alcotest.fail "tuning report missing"

let () =
  Alcotest.run "parallel"
    [
      ( "pool",
        [
          Alcotest.test_case "map order (size 1)" `Quick (test_map_order 1);
          Alcotest.test_case "map order (size 4)" `Quick (test_map_order 4);
          Alcotest.test_case "map exception (size 1)" `Quick (test_map_exception 1);
          Alcotest.test_case "map exception (size 4)" `Quick (test_map_exception 4);
          Alcotest.test_case "exception order (size 1)" `Quick (test_map_exception_order 1);
          Alcotest.test_case "exception order (size 4)" `Quick (test_map_exception_order 4);
          Alcotest.test_case "failure runs batch (size 1)" `Quick
            (test_map_failure_runs_batch_to_completion 1);
          Alcotest.test_case "failure runs batch (size 4)" `Quick
            (test_map_failure_runs_batch_to_completion 4);
          Alcotest.test_case "nested map failure (size 1)" `Quick (test_nested_map_failure 1);
          Alcotest.test_case "nested map failure (size 4)" `Quick (test_nested_map_failure 4);
          Alcotest.test_case "both failure" `Quick test_both_failure;
          Alcotest.test_case "both" `Quick test_both;
          Alcotest.test_case "nested map" `Quick test_nested_map;
          Alcotest.test_case "stats accumulate" `Quick test_stats_accumulate;
          Alcotest.test_case "stats on sequential path" `Quick test_stats_sequential_busy;
          Alcotest.test_case "env sizing" `Quick test_env_sizing;
        ] );
      ( "determinism",
        [
          Alcotest.test_case "clone across pool sizes" `Slow test_clone_determinism;
          Alcotest.test_case "validate across pool sizes" `Slow test_validate_determinism;
          Alcotest.test_case "synth graph across pool sizes" `Slow test_synth_determinism;
          Alcotest.test_case "telemetry on/off x pool sizes" `Slow test_telemetry_invariance;
          Alcotest.test_case "reqtrace on/off x pool sizes" `Slow test_reqtrace_invariance;
          Alcotest.test_case "recorders are per-run settings" `Slow test_recorders_per_run;
          Alcotest.test_case "constant profile x pool sizes" `Slow
            test_constant_profile_invariance;
          Alcotest.test_case "speculation reported" `Quick test_speculation_reported;
        ] );
    ]
