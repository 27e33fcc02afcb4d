(* The telemetry layer: DDSketch histogram error/merge guarantees, the
   windowed Timeseries collector and its exporters, the transient-fidelity
   scorecard, and the end-to-end guarantee that enabled timelines are
   bit-identical across pool sizes. *)
module Histogram = Ditto_obs.Histogram
module Ts = Ditto_obs.Timeseries
module Tl = Ditto_report.Timeline
module Rng = Ditto_util.Rng
module Pool = Ditto_util.Pool
module Pipeline = Ditto_core.Pipeline
module Platform = Ditto_uarch.Platform
module Plan = Ditto_fault.Plan
open Ditto_app

(* {1 Histogram} *)

(* Exact nearest-rank quantile, same convention as Histogram.quantile:
   the sample at 1-based rank [max 1 (ceil (q * n))]. *)
let exact_quantile sorted q =
  let n = Array.length sorted in
  let rank = max 1 (int_of_float (Float.ceil (q *. float_of_int n))) in
  sorted.(rank - 1)

let mixed_samples ~seed n =
  let rng = Rng.create seed in
  Array.init n (fun _ ->
      match Rng.int rng 3 with
      | 0 -> 1e-6 +. Rng.float rng 0.001 (* microsecond scale *)
      | 1 -> 0.01 +. Rng.float rng 1.0 (* unit scale *)
      | _ -> 1.0 +. Rng.float rng 1000.0 (* three decades up *))

let test_quantile_bound () =
  let alpha = 0.01 in
  let values = mixed_samples ~seed:42 2000 in
  let h = Histogram.create ~alpha () in
  Array.iter (Histogram.add h) values;
  let sorted = Array.copy values in
  Array.sort compare sorted;
  List.iter
    (fun q ->
      let exact = exact_quantile sorted q in
      let est = Histogram.quantile h q in
      let err = Float.abs (est -. exact) /. exact in
      if err > alpha +. 1e-9 then
        Alcotest.failf "q=%g: estimate %g vs exact %g, rel err %g > alpha %g" q est exact err
          alpha)
    [ 0.0; 0.01; 0.1; 0.25; 0.5; 0.75; 0.9; 0.95; 0.99; 0.999; 1.0 ];
  Alcotest.(check int) "count" 2000 (Histogram.count h);
  Alcotest.(check (float 0.0)) "exact min" sorted.(0) (Histogram.min_value h);
  Alcotest.(check (float 0.0)) "exact max" sorted.(1999) (Histogram.max_value h)

let test_merge_associative () =
  let mk seed n =
    let h = Histogram.create () in
    Array.iter (Histogram.add h) (mixed_samples ~seed n);
    h
  in
  let a = mk 1 500 and b = mk 2 300 and c = mk 3 700 in
  let l = Histogram.merge (Histogram.merge a b) c in
  let r = Histogram.merge a (Histogram.merge b c) in
  (* integer bucket counts merge, so the sketch state is bit-identical
     whatever the merge order — not just approximately equal *)
  Alcotest.(check bool) "buckets identical" true (Histogram.buckets l = Histogram.buckets r);
  Alcotest.(check int) "counts" (Histogram.count l) (Histogram.count r);
  Alcotest.(check (float 0.0)) "p99 bit-equal" (Histogram.quantile l 0.99)
    (Histogram.quantile r 0.99);
  Alcotest.(check bool) "commutative" true
    (Histogram.buckets (Histogram.merge a b) = Histogram.buckets (Histogram.merge b a));
  Alcotest.(check int) "merged size" 1500 (Histogram.count l);
  (* a merged histogram still honors the error bound *)
  let all = Array.concat [ mixed_samples ~seed:1 500; mixed_samples ~seed:2 300; mixed_samples ~seed:3 700 ] in
  Array.sort compare all;
  List.iter
    (fun q ->
      let exact = exact_quantile all q and est = Histogram.quantile l q in
      Alcotest.(check bool)
        (Printf.sprintf "merged bound at q=%g" q)
        true
        (Float.abs (est -. exact) /. exact <= Histogram.alpha l +. 1e-9))
    [ 0.5; 0.95; 0.99 ]

let test_monotone_quantiles () =
  let h = Histogram.create () in
  Array.iter (Histogram.add h) (mixed_samples ~seed:7 1000);
  let p50 = Histogram.quantile h 0.5
  and p95 = Histogram.quantile h 0.95
  and p99 = Histogram.quantile h 0.99 in
  Alcotest.(check bool) "p50 <= p95" true (p50 <= p95);
  Alcotest.(check bool) "p95 <= p99" true (p95 <= p99)

let test_histogram_edges () =
  let h = Histogram.create () in
  Alcotest.(check (float 0.0)) "empty quantile" 0.0 (Histogram.quantile h 0.5);
  Alcotest.(check (float 0.0)) "empty min" 0.0 (Histogram.min_value h);
  Histogram.add h 0.0;
  Histogram.add h (-3.0);
  Alcotest.(check int) "zero bucket counts non-positives" 2 (Histogram.zero_count h);
  Alcotest.(check (float 0.0)) "all-zero quantile" 0.0 (Histogram.quantile h 1.0);
  Histogram.add h 5.0;
  (* ranks 1-2 sit in the zero bucket, rank 3 is the real sample *)
  Alcotest.(check (float 0.0)) "zero-bucket rank" 0.0 (Histogram.quantile h 0.5);
  Alcotest.(check bool) "top rank near 5.0" true
    (Float.abs (Histogram.quantile h 1.0 -. 5.0) /. 5.0 <= Histogram.alpha h);
  Alcotest.check_raises "q out of range" (Invalid_argument "Histogram.quantile: q outside [0, 1]")
    (fun () -> ignore (Histogram.quantile h 1.5));
  Alcotest.check_raises "alpha mismatch"
    (Invalid_argument "Histogram.merge: alpha mismatch") (fun () ->
      ignore (Histogram.merge h (Histogram.create ~alpha:0.02 ())))

let test_histogram_empty_merge () =
  (* Pins for the degenerate merges the windowed scorecards lean on: a
     window with no samples merges as a true identity element, and
     quantiles of a zero-count sketch are 0 at every rank, not NaN or an
     exception. *)
  let empty () = Histogram.create () in
  let e = Histogram.merge (empty ()) (empty ()) in
  Alcotest.(check int) "empty+empty count" 0 (Histogram.count e);
  Alcotest.(check int) "empty+empty zero bucket" 0 (Histogram.zero_count e);
  Alcotest.(check bool) "empty+empty buckets" true (Histogram.buckets e = []);
  Alcotest.(check (float 0.0)) "empty+empty min" 0.0 (Histogram.min_value e);
  Alcotest.(check (float 0.0)) "empty+empty max" 0.0 (Histogram.max_value e);
  List.iter
    (fun q ->
      Alcotest.(check (float 0.0))
        (Printf.sprintf "zero-count quantile q=%g" q)
        0.0 (Histogram.quantile e q))
    [ 0.0; 0.5; 0.99; 1.0 ];
  (* empty is an identity on either side: merging it in changes nothing *)
  let h = Histogram.create () in
  Array.iter (Histogram.add h) (mixed_samples ~seed:11 500);
  let le = Histogram.merge (empty ()) h and re = Histogram.merge h (empty ()) in
  List.iter
    (fun (side, m) ->
      Alcotest.(check int) (side ^ " count") (Histogram.count h) (Histogram.count m);
      Alcotest.(check bool) (side ^ " buckets") true (Histogram.buckets h = Histogram.buckets m);
      Alcotest.(check (float 0.0)) (side ^ " min") (Histogram.min_value h) (Histogram.min_value m);
      Alcotest.(check (float 0.0)) (side ^ " max") (Histogram.max_value h) (Histogram.max_value m);
      List.iter
        (fun q ->
          Alcotest.(check (float 0.0))
            (Printf.sprintf "%s quantile q=%g bit-equal" side q)
            (Histogram.quantile h q) (Histogram.quantile m q))
        [ 0.0; 0.5; 0.95; 0.99; 1.0 ])
    [ ("empty<-h", le); ("h<-empty", re) ];
  (* a sketch holding only zero-bucket samples still reports 0 everywhere
     after a merge, and keeps its exact (negative) min *)
  let z = Histogram.create () in
  Histogram.add z 0.0;
  Histogram.add z (-1.0);
  let zm = Histogram.merge z (empty ()) in
  Alcotest.(check int) "zero-only count survives merge" 2 (Histogram.count zm);
  Alcotest.(check int) "zero-only zero bucket" 2 (Histogram.zero_count zm);
  Alcotest.(check (float 0.0)) "zero-only p100" 0.0 (Histogram.quantile zm 1.0);
  Alcotest.(check (float 0.0)) "zero-only exact min" (-1.0) (Histogram.min_value zm)

(* {1 Timeseries windowing} *)

let test_windowing () =
  let t = Ts.create ~windows:10 ~start:10.0 ~duration:1.0 ~tiers:[ "web" ] () in
  Alcotest.(check (float 1e-12)) "window width" 0.1 (Ts.window_seconds t);
  Alcotest.(check (list string)) "tiers + synthetic client" [ "web"; Ts.client_tier ] (Ts.tiers t);
  let web = Ts.series t ~tier:"web" in
  Ts.latency web ~at:10.05 ~seconds:0.002;
  Ts.latency web ~at:10.99 ~seconds:0.004;
  (* outside [start, start + duration): dropped, not clamped *)
  Ts.latency web ~at:11.0 ~seconds:0.1;
  Ts.latency web ~at:9.999 ~seconds:0.1;
  Alcotest.(check int) "first window" 1 (Ts.row t ~tier:"web" 0).Ts.r_completed;
  Alcotest.(check int) "last window" 1 (Ts.row t ~tier:"web" 9).Ts.r_completed;
  let total = ref 0 in
  for i = 0 to 9 do
    total := !total + (Ts.row t ~tier:"web" i).Ts.r_completed
  done;
  Alcotest.(check int) "drain and pre-start samples dropped" 2 !total;
  Ts.count web ~at:10.31 Ts.Timeouts;
  Ts.count web ~at:10.33 Ts.Retries;
  Ts.queue web ~at:10.32 ~depth:4;
  Ts.queue web ~at:10.34 ~depth:2;
  Ts.cpu web ~at:10.35 ~seconds:0.01;
  let r = Ts.row t ~tier:"web" 3 in
  Alcotest.(check int) "timeout counter" 1 r.Ts.r_timeouts;
  Alcotest.(check int) "retry counter" 1 r.Ts.r_retries;
  Alcotest.(check int) "queue keeps max" 4 r.Ts.r_queue_depth;
  Alcotest.(check (float 1e-12)) "cpu accumulates" 0.01 r.Ts.r_cpu_seconds;
  Ts.mark t ~at:42.0 ~label:"crash:web";
  Alcotest.(check bool) "marks kept outside the window range" true
    (Ts.marks t = [ (42.0, "crash:web") ]);
  Alcotest.check_raises "unknown tier" (Invalid_argument "Timeseries: unknown tier db")
    (fun () -> ignore (Ts.row t ~tier:"db" 0));
  Alcotest.check_raises "unknown series" (Invalid_argument "Timeseries: unknown tier db")
    (fun () -> ignore (Ts.series t ~tier:"db"))

let contains ~needle hay =
  let nl = String.length needle and hl = String.length hay in
  let rec go i = i + nl <= hl && (String.sub hay i nl = needle || go (i + 1)) in
  go 0

let test_openmetrics () =
  let t = Ts.create ~windows:4 ~start:0.0 ~duration:0.4 ~tiers:[ "web" ] () in
  Ts.latency (Ts.series t ~tier:"web") ~at:0.05 ~seconds:0.002;
  Ts.latency (Ts.series t ~tier:Ts.client_tier) ~at:0.05 ~seconds:0.003;
  Ts.set_rate_basis t ~tier:"web" ~insts_per_req:1000.0;
  let doc = Ts.openmetrics [ ([ ("side", "actual") ], t) ] in
  Alcotest.(check bool) "ends with EOF" true
    (String.length doc >= 6 && String.sub doc (String.length doc - 6) 6 = "# EOF\n");
  List.iter
    (fun needle -> Alcotest.(check bool) ("contains " ^ needle) true (contains ~needle doc))
    [
      "# TYPE ditto_throughput_qps gauge";
      "# TYPE ditto_latency_seconds gauge";
      "tier=\"web\",side=\"actual\"";
      "quantile=\"0.95\"";
      "kind=\"timeout\"";
      "ditto_insts_per_sec";
    ];
  (* rate-form series only where a basis was set: web yes, client no *)
  Alcotest.(check bool) "no client insts series" false
    (contains ~needle:("ditto_insts_per_sec{tier=\"" ^ Ts.client_tier) doc)

let test_chrome_events () =
  let t = Ts.create ~windows:2 ~start:0.0 ~duration:0.2 ~tiers:[ "web" ] () in
  Ts.latency (Ts.series t ~tier:"web") ~at:0.05 ~seconds:0.002;
  Ts.mark t ~at:0.1 ~label:"crash:web";
  let evs = Ts.chrome_events ~pid:100 ~process_name:"redis actual" t in
  let render = List.map (fun e -> Ditto_util.Jsonx.to_string e) evs in
  let count needle = List.length (List.filter (contains ~needle) render) in
  Alcotest.(check int) "one process_name meta" 1 (count "\"process_name\"");
  (* one thread per tier plus the client series *)
  Alcotest.(check int) "thread_name metas" 2 (count "\"thread_name\"");
  (* 2 windows x 2 tiers x 4 counter series (no rate basis set) *)
  Alcotest.(check int) "counter events" 16 (count "\"ph\":\"C\"");
  Alcotest.(check int) "fault instant marker" 1 (count "\"ph\":\"i\"");
  Alcotest.(check bool) "tier tid is 1-based" true
    (List.exists (fun s -> contains ~needle:"\"web qps\"" s && contains ~needle:"\"tid\":1" s) render)

(* {1 Transient-fidelity scorecard} *)

let collector_with completed =
  (* one client latency sample per completion, all at the same value so
     p95 agrees between sides and only throughput drives the error *)
  let n = Array.length completed in
  let t = Ts.create ~windows:n ~start:0.0 ~duration:(0.1 *. float_of_int n) ~tiers:[ "web" ] () in
  let client = Ts.series t ~tier:Ts.client_tier and web = Ts.series t ~tier:"web" in
  Array.iteri
    (fun i c ->
      let at = (0.1 *. float_of_int i) +. 0.05 in
      for _ = 1 to c do
        Ts.latency client ~at ~seconds:0.002;
        Ts.latency web ~at ~seconds:0.001
      done)
    completed;
  t

let test_scorecard_steady () =
  let actual = collector_with [| 10; 10; 10; 10 |] in
  let clone = collector_with [| 10; 10; 10; 10 |] in
  let tl = Tl.of_timelines ~app:"unit" ~actual ~clone () in
  Alcotest.(check int) "one row per window" 4 (List.length tl.Tl.rows);
  Alcotest.(check (float 0.0)) "worst" 0.0 tl.Tl.worst_window_err_pct;
  Alcotest.(check bool) "no fault" true (tl.Tl.fault_at = None);
  Alcotest.(check bool) "trivially reconverged" true tl.Tl.reconverged;
  Alcotest.(check (float 0.0)) "zero reconvergence" 0.0 tl.Tl.reconverge_seconds;
  Alcotest.(check bool) "tier series scored" true (tl.Tl.tier_worst = [ ("web", 0.0) ])

let test_scorecard_reconvergence () =
  let actual = collector_with [| 10; 10; 10; 10 |] in
  let clone = collector_with [| 10; 20; 20; 10 |] in
  Ts.mark actual ~at:0.15 ~label:"crash:web";
  let tl = Tl.of_timelines ~app:"unit" ~plan:"kill" ~actual ~clone () in
  Alcotest.(check bool) "fault placed" true (tl.Tl.fault_at = Some 0.15);
  Alcotest.(check (float 1e-9)) "worst window is the 100% miss" 100.0 tl.Tl.worst_window_err_pct;
  Alcotest.(check bool) "reconverged" true tl.Tl.reconverged;
  (* windows 1-2 disagree, window 3 opens the compliant streak: the
     reconvergence time runs from the fault to that window's end *)
  Alcotest.(check (float 1e-9)) "fault -> end of first compliant window" 0.25
    tl.Tl.reconverge_seconds;
  let keys = List.map fst (Tl.flat tl) in
  Alcotest.(check (list string)) "flat gate keys"
    [
      "unit/kill/worst_window_err_pct";
      "unit/kill/mean_window_err_pct";
      "unit/kill/reconverge_seconds";
    ]
    keys

let test_scorecard_not_reconverged () =
  let actual = collector_with [| 10; 10; 10; 10 |] in
  let clone = collector_with [| 10; 20; 20; 20 |] in
  Ts.mark actual ~at:0.15 ~label:"crash:web";
  let tl = Tl.of_timelines ~app:"unit" ~actual ~clone () in
  Alcotest.(check bool) "never reconverges" false tl.Tl.reconverged;
  (* capped at run end: 0.4 - 0.15 *)
  Alcotest.(check (float 1e-9)) "capped at run end" 0.25 tl.Tl.reconverge_seconds

let test_scorecard_multi_fault () =
  (* flaky-link-style plan: two markers, each opening its own divergence
     episode — per-marker reconvergence rows, legacy fields = first *)
  let actual = collector_with [| 10; 10; 10; 10; 10; 10 |] in
  let clone = collector_with [| 10; 20; 10; 10; 20; 10 |] in
  Ts.mark actual ~at:0.15 ~label:"link-down:web";
  Ts.mark actual ~at:0.45 ~label:"link-up:web";
  let tl = Tl.of_timelines ~app:"unit" ~plan:"flaky" ~actual ~clone () in
  Alcotest.(check int) "one row per marker" 2 (List.length tl.Tl.faults);
  (match tl.Tl.faults with
  | [ f0; f1 ] ->
      Alcotest.(check string) "first label" "link-down:web" f0.Tl.f_label;
      Alcotest.(check (float 1e-9)) "first at" 0.15 f0.Tl.f_at;
      (* window 1 misses, windows 2-3 open the compliant streak *)
      Alcotest.(check (float 1e-9)) "first reconverge" 0.15 f0.Tl.f_reconverge_seconds;
      Alcotest.(check bool) "first reconverged" true f0.Tl.f_reconverged;
      (* window 4 misses, final window 5 agrees *)
      Alcotest.(check string) "second label" "link-up:web" f1.Tl.f_label;
      Alcotest.(check (float 1e-9)) "second reconverge" 0.15 f1.Tl.f_reconverge_seconds;
      Alcotest.(check bool) "second reconverged" true f1.Tl.f_reconverged
  | _ -> Alcotest.fail "expected two fault rows");
  (* legacy first-fault fields keep their meaning *)
  Alcotest.(check bool) "fault_at is the first marker" true (tl.Tl.fault_at = Some 0.15);
  Alcotest.(check (float 1e-9)) "legacy reconverge = first row" 0.15 tl.Tl.reconverge_seconds;
  (* multi-event plans gate each marker *)
  let flat = Tl.flat tl in
  Alcotest.(check bool) "per-fault flat keys" true
    (List.mem_assoc "unit/flaky/fault0/reconverge_seconds" flat
    && List.mem_assoc "unit/flaky/fault1/reconverge_seconds" flat)

let test_scorecard_grid_mismatch () =
  let actual = collector_with [| 10; 10 |] in
  let clone = collector_with [| 10; 10; 10 |] in
  Alcotest.check_raises "grids must match"
    (Invalid_argument "Timeline.of_timelines: window grids differ") (fun () ->
      ignore (Tl.of_timelines ~app:"unit" ~actual ~clone ()))

(* {1 End-to-end determinism across pool sizes} *)

let with_pool size f =
  let pool = Pool.create ~size () in
  Fun.protect ~finally:(fun () -> Pool.shutdown pool) (fun () -> f pool)

(* A full chaos validation with telemetry on: the exported timelines
   (openmetrics text is a byte-level serialisation of the collector
   state) must be identical between a sequential and a 4-domain pool. *)
let timelines_with pool =
  let app = Ditto_apps.Redis.spec () in
  let load = Service.load ~qps:20000.0 ~open_loop:false ~duration:0.3 () in
  let r =
    Pipeline.clone ~pool ~tune:false ~requests:60 ~profile_requests:40 ~seed:7
      ~platform:Platform.a ~load app
  in
  let tiers = List.map (fun (t : Spec.tier) -> t.Spec.tier_name) r.Pipeline.original.Spec.tiers in
  let plan = Plan.kill_mid_tier ~duration:load.Service.duration ~tiers () in
  let ch =
    Pipeline.validate_under ~pool
      ~config_of:(fun p -> Runner.config ~timeline:true p)
      ~platform:Platform.a ~load ~plan ~label:"tl" r
  in
  match
    (ch.Pipeline.actual_service.Service.timeline, ch.Pipeline.synthetic_service.Service.timeline)
  with
  | Some a, Some c -> (Ts.to_openmetrics a, Ts.to_openmetrics c, a, c)
  | _ -> Alcotest.fail "telemetry enabled but no timeline collected"

let test_timeline_pool_determinism () =
  let a1, c1, act, clone = with_pool 1 timelines_with in
  let a4, c4, _, _ = with_pool 4 timelines_with in
  Alcotest.(check bool) "actual timeline bit-identical across pool sizes" true (a1 = a4);
  Alcotest.(check bool) "clone timeline bit-identical across pool sizes" true (c1 = c4);
  (* and the scorecard built from them is sane: a fault fired, so the
     reconvergence time is strictly positive *)
  let tl = Tl.of_timelines ~app:"redis" ~plan:"kill-mid-tier" ~actual:act ~clone () in
  Alcotest.(check int) "default window count" 24 (List.length tl.Tl.rows);
  Alcotest.(check bool) "fault marker recorded" true (tl.Tl.fault_at <> None);
  Alcotest.(check bool) "reconvergence strictly positive" true (tl.Tl.reconverge_seconds > 0.0)

let () =
  Alcotest.run "timeline"
    [
      ( "histogram",
        [
          Alcotest.test_case "quantiles within error bound" `Quick test_quantile_bound;
          Alcotest.test_case "merge associative and bit-stable" `Quick test_merge_associative;
          Alcotest.test_case "monotone p50<=p95<=p99" `Quick test_monotone_quantiles;
          Alcotest.test_case "edge cases" `Quick test_histogram_edges;
          Alcotest.test_case "empty merge and zero-count quantiles" `Quick
            test_histogram_empty_merge;
        ] );
      ( "timeseries",
        [
          Alcotest.test_case "windowing and counters" `Quick test_windowing;
          Alcotest.test_case "openmetrics exposition" `Quick test_openmetrics;
          Alcotest.test_case "chrome counter events" `Quick test_chrome_events;
        ] );
      ( "scorecard",
        [
          Alcotest.test_case "steady state" `Quick test_scorecard_steady;
          Alcotest.test_case "reconvergence after fault" `Quick test_scorecard_reconvergence;
          Alcotest.test_case "never reconverges" `Quick test_scorecard_not_reconverged;
          Alcotest.test_case "per-marker reconvergence (multi-event)" `Quick
            test_scorecard_multi_fault;
          Alcotest.test_case "grid mismatch rejected" `Quick test_scorecard_grid_mismatch;
        ] );
      ( "determinism",
        [
          Alcotest.test_case "timelines across pool sizes" `Slow test_timeline_pool_determinism;
        ] );
    ]
