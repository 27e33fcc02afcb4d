(* Tests for the fidelity observatory (lib/report + Ditto_obs.Profiler):
   scorecards, the sampled profiler's reconciliation invariant, the
   collapsed-stack export, the baseline regression gate and the bench
   --json schema check. *)
open Ditto_app
module Pipeline = Ditto_core.Pipeline
module Platform = Ditto_uarch.Platform
module Profiler = Ditto_obs.Profiler
module Scorecard = Ditto_report.Scorecard
module Flame = Ditto_report.Flame
module Baseline = Ditto_report.Baseline
module Bench_json = Ditto_report.Bench_json
module Gate = Ditto_report.Gate
module J = Ditto_util.Jsonx

(* One small untuned redis clone + validation, shared by the scorecard,
   schema and gate tests (cloning dominates this suite's runtime). *)
let clone =
  lazy
    (let app = Ditto_apps.Redis.spec () in
     let load = Service.load ~qps:20_000.0 ~duration:0.3 () in
     ( load,
       Pipeline.clone ~tune:false ~requests:60 ~profile_requests:40 ~platform:Platform.a ~load
         app ))

let comparison =
  lazy
    (let load, result = Lazy.force clone in
     Pipeline.validate
       ~config_of:(fun p -> Runner.config ~requests:60 p)
       ~platform:Platform.a ~load ~label:"test" result)

(* {1 Scorecards} *)

let test_scorecard_rows () =
  let card = Scorecard.of_comparison ~app:"redis" (Lazy.force comparison) in
  Alcotest.(check string) "label from comparison" "test" card.Scorecard.label;
  let metrics = List.map (fun (r : Scorecard.row) -> r.Scorecard.metric) card.Scorecard.rows in
  List.iter
    (fun m ->
      Alcotest.(check bool) (m ^ " row present") true (List.mem m metrics))
    [ "ipc"; "insts"; "branch"; "l1i"; "l1d"; "l2"; "llc"; "throughput"; "lat_avg";
      "lat_p95"; "lat_p99" ];
  List.iter
    (fun (r : Scorecard.row) ->
      let expect =
        match r.Scorecard.metric with
        | "l1i" | "branch" -> Some "frontend"
        | "l1d" | "l2" | "llc" -> Some "data"
        | "ipc" | "insts" -> Some "work"
        | _ -> None
      in
      Alcotest.(check (option string))
        (r.Scorecard.metric ^ " knob group") expect r.Scorecard.knob_group;
      Alcotest.(check bool)
        (r.Scorecard.metric ^ " err consistent with pass") r.Scorecard.pass
        (r.Scorecard.err_pct <= card.Scorecard.target_pct))
    card.Scorecard.rows

let test_scorecard_attribution () =
  let report : Ditto_tune.Tuner.report =
    {
      Ditto_tune.Tuner.iterations = [];
      converged = true;
      final_params = [];
      speculation = 0;
      attribution = [ ("redis/data", 0.031); ("redis/frontend", 0.012) ];
    }
  in
  let card = Scorecard.of_comparison ~app:"redis" ~tuning:report (Lazy.force comparison) in
  (* percent, not fraction *)
  Alcotest.(check (float 1e-9)) "data residual in pct" 3.1
    (List.assoc "redis/data" card.Scorecard.attribution);
  Alcotest.(check (float 1e-9)) "frontend residual in pct" 1.2
    (List.assoc "redis/frontend" card.Scorecard.attribution)

let test_attribution_of_errors () =
  let errors =
    [
      ("redis/ipc", 0.02); ("redis/insts", 0.05); ("redis/branch", 0.01);
      ("redis/l1i", 0.07); ("redis/l1d", 0.03); ("redis/llc", 0.09);
      ("redis/unknown_counter", 0.9);
    ]
  in
  let a = Ditto_tune.Tuner.attribution_of_errors errors in
  Alcotest.(check (float 1e-12)) "work keeps the worst of ipc/insts" 0.05
    (List.assoc "redis/work" a);
  Alcotest.(check (float 1e-12)) "frontend keeps the worst of l1i/branch" 0.07
    (List.assoc "redis/frontend" a);
  Alcotest.(check (float 1e-12)) "data keeps the worst of l1d/llc" 0.09
    (List.assoc "redis/data" a);
  Alcotest.(check int) "unowned metrics dropped" 3 (List.length a)

(* {1 Sampled profiler} *)

let run_profiled () =
  let app = Ditto_apps.Redis.spec () in
  let load = Service.load ~qps:20_000.0 ~duration:0.3 () in
  Profiler.reset ();
  Profiler.enable ();
  let out = Runner.run (Runner.config ~requests:80 ~seed:5 Platform.a) ~load app in
  Profiler.disable ();
  out

let measured_cpu_seconds out =
  List.fold_left
    (fun acc (_, (r : Measure.tier_result)) ->
      Array.fold_left (fun a tr -> a +. Measure.trace_cpu_seconds tr) acc r.Measure.traces
      +. Option.fold ~none:0.0 ~some:Measure.trace_cpu_seconds r.Measure.background_trace)
    0.0 out.Runner.measured

let test_profiler_reconciles () =
  let out = run_profiled () in
  let measured = measured_cpu_seconds out in
  let sampled = Profiler.total_seconds Profiler.Cpu in
  Alcotest.(check bool) "measured some on-CPU time" true (measured > 0.0);
  let err = Float.abs (sampled -. measured) /. measured in
  if err > 0.01 then
    Alcotest.failf "sampled %.6fms vs measured %.6fms: err %.2f%% > 1%%" (1e3 *. sampled)
      (1e3 *. measured) (100.0 *. err);
  (* Every stack is rooted at the tier and phased. *)
  List.iter
    (fun (s : Profiler.sample) ->
      match s.Profiler.stack with
      | tier :: phase :: _ :: [] ->
          Alcotest.(check string) "tier frame" "redis" tier;
          Alcotest.(check bool) ("phase " ^ phase) true
            (List.mem phase [ "recv"; "handler"; "send"; "background" ])
      | st -> Alcotest.failf "unexpected stack shape: %s" (String.concat ";" st))
    (Profiler.samples Profiler.Cpu)

let test_profiler_off_records_nothing () =
  Profiler.reset ();
  Profiler.disable ();
  let app = Ditto_apps.Redis.spec () in
  let load = Service.load ~qps:20_000.0 ~duration:0.2 () in
  ignore (Runner.run (Runner.config ~requests:30 ~seed:6 Platform.a) ~load app);
  Alcotest.(check (float 0.0)) "cpu track empty" 0.0 (Profiler.total_seconds Profiler.Cpu);
  Alcotest.(check (float 0.0)) "sim track empty" 0.0 (Profiler.total_seconds Profiler.Sim)

let test_collapsed_format () =
  let out = run_profiled () in
  ignore out;
  let path = Filename.temp_file "ditto_prof" ".folded" in
  let lines_written = Flame.write_collapsed ~path (Profiler.samples Profiler.Cpu) in
  let lines = In_channel.with_open_text path In_channel.input_lines in
  Sys.remove path;
  Alcotest.(check int) "reported line count" lines_written (List.length lines);
  Alcotest.(check bool) "non-empty" true (lines <> []);
  List.iter
    (fun line ->
      (* "frame;frame;frame <positive-integer>" *)
      match String.rindex_opt line ' ' with
      | None -> Alcotest.failf "no weight separator: %S" line
      | Some i ->
          let stack = String.sub line 0 i in
          let count = String.sub line (i + 1) (String.length line - i - 1) in
          Alcotest.(check bool) ("integer weight: " ^ count) true
            (match int_of_string_opt count with Some n -> n > 0 | None -> false);
          Alcotest.(check bool) ("stack has frames: " ^ stack) true
            (String.length stack > 0 && String.split_on_char ';' stack <> []))
    lines

(* {1 Baseline diff} *)

let test_baseline_diff () =
  let base =
    Baseline.make
      ~tolerance_pp:[ ("default", 2.0); ("llc", 4.0) ]
      [
        ("mean_error_pct/IPC", 3.0);
        ("scorecards/redis/redis/llc", 10.0);
        ("scorecards/redis/redis/l1d", 5.0);
        ("mean_error_pct/gone", 1.0);
      ]
  in
  (* within tolerance, improvement, and a missing key: no regression *)
  let regs, checked =
    Baseline.diff base
      [
        ("mean_error_pct/IPC", 4.9);
        ("scorecards/redis/redis/llc", 13.9);
        ("scorecards/redis/redis/l1d", 1.0);
        ("mean_error_pct/new_axis", 50.0);
      ]
  in
  Alcotest.(check int) "three keys compared" 3 checked;
  Alcotest.(check int) "no regressions" 0 (List.length regs);
  (* past tolerance: flagged, with the per-metric tolerance applied *)
  let regs, _ =
    Baseline.diff base
      [ ("mean_error_pct/IPC", 5.1); ("scorecards/redis/redis/llc", 14.1) ]
  in
  Alcotest.(check int) "both regressed" 2 (List.length regs);
  let llc = List.find (fun (r : Baseline.regression) -> r.Baseline.key <> "mean_error_pct/IPC") regs in
  Alcotest.(check (float 1e-9)) "llc tolerance from last component" 4.0 llc.Baseline.allowed_pp

let test_baseline_merge () =
  let base = Baseline.make [ ("a", 1.0); ("b", 2.0) ] in
  let merged = Baseline.merge ~into:base [ ("b", 9.0); ("c", 3.0) ] in
  (* replaced, kept, extended — in that order of interest *)
  Alcotest.(check (float 1e-12)) "b replaced" 9.0 (List.assoc "b" merged.Baseline.metrics);
  Alcotest.(check (float 1e-12)) "a kept" 1.0 (List.assoc "a" merged.Baseline.metrics);
  Alcotest.(check (float 1e-12)) "c added" 3.0 (List.assoc "c" merged.Baseline.metrics);
  Alcotest.(check int) "no duplicates" 3 (List.length merged.Baseline.metrics)

let test_baseline_roundtrip () =
  let base = Baseline.make [ ("a/b", 1.5); ("c", 2.5) ] in
  let path = Filename.temp_file "ditto_base" ".json" in
  Baseline.save ~path base;
  let loaded = Baseline.load path in
  Sys.remove path;
  Alcotest.(check (float 1e-12)) "metric a/b" 1.5 (List.assoc "a/b" loaded.Baseline.metrics);
  Alcotest.(check (float 1e-12)) "default tolerance" 2.0 (Baseline.tolerance_for loaded "a/b");
  Alcotest.(check (float 1e-12)) "llc tolerance survives" 4.0
    (Baseline.tolerance_for loaded "x/llc")

(* {1 bench --json schema} *)

let sample_input () =
  let card = Scorecard.of_comparison ~app:"redis" (Lazy.force comparison) in
  {
      Bench_json.domains = 1;
      total_seconds = 1.25;
      experiments =
        [
          {
            Bench_json.exp_name = "scorecards";
            exp_seconds = 1.0;
            exp_domains = 1;
            exp_parallel_efficiency = 0.9;
          };
        ];
      clone_seconds = [ ("redis", 0.8) ];
      mean_error_pct = [ ("IPC", 3.5) ];
      tuning = [];
      metrics = [ ("sim.events", 1000.0) ];
      scorecards = [ card ];
      gates =
        [
          (Gate.Chaos, [ ("redis/kill-mid-tier/error_rate_pp", 1.2) ]);
          (Gate.Timeline, [ ("redis/kill-mid-tier/worst_window_err_pct", 3.0) ]);
          (Gate.Critpath, [ ("redis/steady/redis/service/share_err_pp", 1.1) ]);
          (Gate.Surge, [ ("redis/flash-crowd/shed_fraction_err_pp", 0.7) ]);
        ];
      peak_heap_events = 4096;
      tier_counts = [ ("redis", 1) ];
    }

let sample_doc () = Bench_json.assemble (sample_input ())

let test_schema_valid () =
  let doc = sample_doc () in
  (match Bench_json.validate doc with
  | Ok () -> ()
  | Error e -> Alcotest.failf "assembled doc rejected: %s" e);
  (* survives a JSON round-trip (what bench --check-json re-reads) *)
  match Bench_json.validate (J.of_string (J.to_string doc)) with
  | Ok () -> ()
  | Error e -> Alcotest.failf "round-tripped doc rejected: %s" e

let test_schema_drift_rejected () =
  let doc = sample_doc () in
  let drop key = function
    | J.Obj kvs -> J.Obj (List.filter (fun (k, _) -> k <> key) kvs)
    | j -> j
  in
  let set key v = function
    | J.Obj kvs -> J.Obj (List.map (fun (k, old) -> (k, if k = key then v else old)) kvs)
    | j -> j
  in
  List.iter
    (fun (what, bad) ->
      match Bench_json.validate bad with
      | Ok () -> Alcotest.failf "%s accepted" what
      | Error _ -> ())
    [
      ("missing scorecards", drop "scorecards" doc);
      ("missing mean_error_pct", drop "mean_error_pct" doc);
      ("missing engine section", drop "engine" doc);
      ("missing tier_counts", drop "tier_counts" doc);
      ("missing timeline", drop "timeline" doc);
      ("stringly timeline value", set "timeline" (J.Obj [ ("k", J.Str "3") ]) doc);
      ("missing critpath", drop "critpath" doc);
      ("stringly critpath value", set "critpath" (J.Obj [ ("k", J.Str "3") ]) doc);
      ("old schema version", set "schema_version" (J.int 2) doc);
      ("stringly total_seconds", set "total_seconds" (J.Str "1.25") doc);
      ( "scorecard row missing err_pct",
        set "scorecards"
          (J.Obj
             [
               ( "redis",
                 J.Obj
                   [
                     ("app", J.Str "redis"); ("label", J.Str "t"); ("target_pct", J.Num 5.0);
                     ("passed", J.Bool true);
                     ("rows", J.List [ J.Obj [ ("tier", J.Str "redis") ] ]);
                     ("attribution", J.Obj []);
                   ] );
             ])
          doc );
    ]

(* The flattened metric keys the regression gate compares are derived from
   the same document the schema check accepts. *)
let test_flatten_keys () =
  let doc = sample_doc () in
  let flat = Baseline.flatten doc in
  Alcotest.(check bool) "mean_error_pct key present" true
    (List.mem_assoc "mean_error_pct/IPC" flat);
  Alcotest.(check bool) "scorecard row key present" true
    (List.mem_assoc "scorecards/redis/redis/ipc" flat);
  Alcotest.(check bool) "chaos key present" true
    (List.mem_assoc "chaos/redis/kill-mid-tier/error_rate_pp" flat);
  Alcotest.(check bool) "timeline key present" true
    (List.mem_assoc "timeline/redis/kill-mid-tier/worst_window_err_pct" flat);
  Alcotest.(check bool) "critpath key present" true
    (List.mem_assoc "critpath/redis/steady/redis/service/share_err_pp" flat);
  Alcotest.(check (float 1e-12)) "experiment wall key" 1.0
    (List.assoc "experiments/scorecards/wall_seconds" flat);
  Alcotest.(check (float 1e-12)) "total wall key" 1.25
    (List.assoc "experiments/total/wall_seconds" flat);
  Alcotest.(check bool) "all errors non-negative" true
    (List.for_all (fun (_, v) -> v >= 0.0) flat)

(* {1 Validation gates} *)

let test_gate_names () =
  List.iter
    (fun g ->
      Alcotest.(check bool) ("of_name round-trips " ^ Gate.name g) true
        (Gate.of_name (Gate.name g) = Some g))
    Gate.all;
  Alcotest.(check bool) "unknown name" true (Gate.of_name "bogus" = None)

(* Every gate on the small redis clone: each key sits under
   <app>/<scenario>/, the document carrying the keys passes the schema
   check, and the baseline flattener returns exactly those keys under
   <gate>/. *)
let test_gates_document () =
  let load, result = Lazy.force clone in
  let results = List.map (fun g -> (g, Gate.run g ~app:"redis" ~load result)) Gate.all in
  List.iter
    (fun (g, (r : Gate.result)) ->
      Alcotest.(check bool) (Gate.name g ^ " produced keys") true (Gate.flat r <> []);
      List.iter
        (fun (run : Gate.run) ->
          let prefix = "redis/" ^ run.Gate.scenario ^ "/" in
          List.iter
            (fun (k, _) ->
              Alcotest.(check bool) (k ^ " under " ^ prefix) true (String.starts_with ~prefix k))
            run.Gate.flat)
        r.Gate.runs)
    results;
  let doc =
    Bench_json.assemble
      {
        (sample_input ()) with
        Bench_json.gates = List.map (fun (g, r) -> (g, Gate.flat r)) results;
      }
  in
  (match Bench_json.validate doc with
  | Ok () -> ()
  | Error e -> Alcotest.failf "gate document rejected: %s" e);
  let expected =
    List.concat_map
      (fun (g, r) -> List.map (fun (k, v) -> (Gate.name g ^ "/" ^ k, v)) (Gate.flat r))
      results
  in
  let is_gate_key (k, _) =
    List.exists (fun g -> String.starts_with ~prefix:(Gate.name g ^ "/") k) Gate.all
  in
  Alcotest.(check (list (pair string (float 1e-12))))
    "flatten returns exactly the gate keys" expected
    (List.filter is_gate_key (Baseline.flatten doc))

let () =
  Alcotest.run "report"
    [
      ( "scorecard",
        [
          Alcotest.test_case "rows and knob groups" `Slow test_scorecard_rows;
          Alcotest.test_case "attribution to pct" `Slow test_scorecard_attribution;
          Alcotest.test_case "attribution fold" `Quick test_attribution_of_errors;
        ] );
      ( "profiler",
        [
          Alcotest.test_case "reconciles with measured CPU" `Slow test_profiler_reconciles;
          Alcotest.test_case "off by default records nothing" `Slow
            test_profiler_off_records_nothing;
          Alcotest.test_case "collapsed format" `Slow test_collapsed_format;
        ] );
      ( "baseline",
        [
          Alcotest.test_case "diff" `Quick test_baseline_diff;
          Alcotest.test_case "merge" `Quick test_baseline_merge;
          Alcotest.test_case "roundtrip" `Quick test_baseline_roundtrip;
        ] );
      ( "bench_json",
        [
          Alcotest.test_case "schema valid" `Slow test_schema_valid;
          Alcotest.test_case "schema drift rejected" `Slow test_schema_drift_rejected;
          Alcotest.test_case "flatten keys" `Slow test_flatten_keys;
        ] );
      ( "gate",
        [
          Alcotest.test_case "names round-trip" `Quick test_gate_names;
          Alcotest.test_case "keys, document and flatten" `Slow test_gates_document;
        ] );
    ]
