(* Benchmark harness: regenerates every table and figure of the paper's
   evaluation (§6) on the simulated substrate, printing the same rows and
   series the paper reports (actual vs synthetic plus error percentages),
   followed by Bechamel micro-benchmarks of the simulation kernels.

     dune exec bench/main.exe            # every experiment but the gates and synth stages
     dune exec bench/main.exe table1 fig5 errors
     dune exec bench/main.exe micro      # Bechamel only

   The experiment -> module mapping is documented in DESIGN.md; measured
   results are recorded against the paper in EXPERIMENTS.md.

   Every experiment is one row of [experiments] at the end of this file.
   The harness is multicore: apps are profiled and cloned concurrently on a
   Ditto_util.Pool (DITTO_DOMAINS domains; DITTO_DOMAINS=1 pins the
   sequential schedule, with identical output). `--json FILE` additionally
   records per-experiment wall-clock, the error summary, the tuner
   trajectory and the clone-accuracy scorecards for tracking performance
   across PRs; `--trace FILE` turns on self-tracing and writes a Chrome
   trace-event file (FILE) plus a Jaeger export (FILE.jaeger.json, or
   --trace-jaeger FILE).

   Regression gate: `--check` diffs the run's accuracy metrics against the
   committed baseline (bench/baselines/default.json, or --baseline FILE)
   and exits 1 if any error worsened past its tolerance;
   `--update-baselines` rewrites the baseline from the current run;
   `--check-json FILE` gates a previously saved --json document without
   re-running any simulation. `--apps a,b` restricts the registry-wide
   experiments (fig5/fig7/fig8/errors/ablation/scorecards and the
   validation gates) to those apps.

   The validation gates of Ditto_report.Gate (chaos, timeline, critpath,
   surge) are opt-in experiments named after their gate: each runs its
   default scenario on every requested app and records its flat keys in
   the --json section of the same name. *)

open Ditto_app
module Pipeline = Ditto_core.Pipeline
module Registry = Ditto_apps.Registry
module Platform = Ditto_uarch.Platform
module Counters = Ditto_uarch.Counters
module Table = Ditto_util.Table
module Stats = Ditto_util.Stats
module Obs = Ditto_obs.Obs

let fmt = Printf.sprintf
let ms x = fmt "%.3f" (1e3 *. x)
let pct x = fmt "%.2f%%" (100.0 *. x)
let banner title = Printf.printf "\n================ %s ================\n%!" title

(* Shorter DES windows than production runs keep the full harness in
   minutes; shapes are stable at these durations. *)
let duration = 0.6
let wall = Unix.gettimeofday

(* {1 Clones: each app is profiled and cloned once, at medium load}

   Cloning the registry is the dominant cost of the harness and every app
   is independent, so [preclone] makes every clone the selected
   experiments read in one [Pool.map] before the first experiment runs,
   longest first, so the slowest clone starts earliest. Each clone also
   runs at its medium load on platform A, the cell every registry-wide
   experiment reads. *)

let pool = Ditto_util.Pool.default ()

(* --apps filter: restricts the registry-wide experiments. Entries accept
   '*' globs (e.g. --apps 'synth-*'), and any pattern naming an extra
   (synth graphs, DeathStarBench ports) pulls it into the run. *)
let apps_filter : string list option ref = ref None

let glob_match pattern name =
  let np = String.length pattern and nn = String.length name in
  (* backtracking wildcard match; patterns are tiny *)
  let rec go p n star_p star_n =
    if n = nn then
      if p = np then true
      else if pattern.[p] = '*' then go (p + 1) n star_p star_n
      else false
    else if p < np && pattern.[p] = '*' then go (p + 1) n (Some p) n
    else if p < np && pattern.[p] = name.[n] then go (p + 1) (n + 1) star_p star_n
    else
      match star_p with
      | Some sp -> go (sp + 1) (star_n + 1) star_p (star_n + 1)
      | None -> false
  in
  go 0 0 None (-1)

let registry_entries () =
  match !apps_filter with
  | None -> Registry.all
  | Some pats ->
      List.filter
        (fun (e : Registry.entry) -> List.exists (fun p -> glob_match p e.Registry.name) pats)
        (Registry.all @ Registry.extras)

(* A clone made at [load] on platform A with the default runner config,
   and [med], the clone's own run at that same cell. [Pipeline.clone] ran
   the original there as [result.reference], so the pair is the cell's
   whole validation and neither side is ever run again. *)
type clone = {
  load : Service.load;
  result : Pipeline.clone_result;
  med : Runner.output;
  secs : float; (* wall time of the clone alone *)
}

let clones : (string, clone) Hashtbl.t = Hashtbl.create 8
let clone_secs : (string * float) list ref = ref []

let med_run ~load (result : Pipeline.clone_result) =
  Runner.run (Runner.config Platform.a) ~load result.Pipeline.synthetic

(* The medium-load, platform-A validation of a clone, under [label]. *)
let med_comparison ~label c =
  Pipeline.comparison_of_outputs ~label c.result.Pipeline.reference c.med

let clone_one name =
  let entry = Registry.by_name name in
  let _, med, _ = entry.Registry.loads in
  let load =
    Ditto_loadgen.Workload.to_load entry.Registry.workload ~qps:med ~duration ()
  in
  let t0 = wall () in
  let result =
    Obs.Span.with_span ~name:"bench.clone" ~attrs:[ ("app", Obs.Str name) ] (fun () ->
        Pipeline.clone ~pool ~platform:Platform.a ~load (entry.Registry.spec ()))
  in
  let secs = wall () -. t0 in
  { load; result; med = med_run ~load result; secs }

let add_clone name ({ result; secs; _ } as c) =
  clone_secs := (name, secs) :: !clone_secs;
  Hashtbl.add clones name c;
  Printf.printf "[clone] %s profiled+generated+tuned in %.1fs%s\n%!" name secs
    (match result.Pipeline.tuning with
    | Some r ->
        fmt " (tuning: %d iters, K=%d, best worst-error %.1f%%)"
          (List.length r.Ditto_tune.Tuner.iterations)
          r.Ditto_tune.Tuner.speculation
          (100.
          *. List.fold_left
               (fun a (i : Ditto_tune.Tuner.iteration) ->
                 Float.min a i.Ditto_tune.Tuner.worst_error)
               infinity r.Ditto_tune.Tuner.iterations)
    | None -> "")

let get_clone name = Hashtbl.find clones name

(* Approximate clone cost (seconds at BENCH_4), for longest-processing-time
   order: starting the most expensive clone first minimises the makespan
   on a finite pool. Only the order matters, so stale figures are
   harmless. *)
let clone_cost = function
  | "social_network" -> 192.0
  | "mongodb" -> 43.0
  | "memcached" -> 26.0
  | "nginx" -> 18.0
  | "redis" -> 9.0
  | _ -> 30.0

let preclone names =
  if names <> [] then begin
    Printf.printf "[clone] cloning %d app(s) on %d domain(s)...\n%!" (List.length names)
      (Ditto_util.Pool.size pool);
    let names = List.sort (fun a b -> compare (clone_cost b) (clone_cost a)) names in
    Obs.Span.with_span ~name:"bench.preclone"
      ~attrs:
        [ ("apps", Obs.Int (List.length names)); ("domains", Obs.Int (Ditto_util.Pool.size pool)) ]
      (fun () -> List.iter2 add_clone names (Ditto_util.Pool.map pool clone_one names))
  end

(* {1 Sample tables: error samples by key}

   Each key keeps its samples newest first, and [mean] sums them in that
   order. E1's accumulator is fed by fig5. *)

let add_sample tbl key e =
  match Hashtbl.find_opt tbl key with
  | Some r -> r := e :: !r
  | None -> Hashtbl.add tbl key (ref [ e ])

let mean xs = List.fold_left ( +. ) 0.0 xs /. float_of_int (max 1 (List.length xs))
let error_acc : (string, float list ref) Hashtbl.t = Hashtbl.create 16
let record_errors = List.iter (fun (axis, e) -> add_sample error_acc axis e)

(* {1 Table 1} *)

let table1 () =
  banner "Table 1: Server platform specifications";
  Table.print ~title:"Platforms (simulated per Table 1)"
    ~header:[ ""; "Platform A"; "Platform B"; "Platform C" ]
    Platform.table1_rows

(* {1 Figure 5: metrics under varying load} *)

let metric_cells (m : Metrics.t) =
  [
    fmt "%.3f" m.Metrics.ipc;
    pct m.Metrics.branch_miss_rate;
    pct m.Metrics.l1i_miss_rate;
    pct m.Metrics.l1d_miss_rate;
    pct m.Metrics.l2_miss_rate;
    pct m.Metrics.llc_miss_rate;
    fmt "%.1f" m.Metrics.net_mbps;
    fmt "%.1f" m.Metrics.disk_mbps;
    ms m.Metrics.lat_avg;
    ms m.Metrics.lat_p95;
    ms m.Metrics.lat_p99;
  ]

let fig5_header =
  [ "load"; "who"; "IPC"; "Branch"; "L1i"; "L1d"; "L2"; "LLC"; "Net MB/s"; "Dsk MB/s";
    "avg ms"; "p95 ms"; "p99 ms" ]

(* The actual and synthetic rows of every focus tier of [entry] in [c],
   labelled [name tl], where [tl] is "/tier" when the app has several focus
   tiers. *)
let focus_rows (entry : Registry.entry) name (c : Pipeline.comparison) =
  List.concat_map
    (fun tier ->
      let name = name (if List.length entry.Registry.focus_tiers > 1 then "/" ^ tier else "") in
      [
        name :: "actual" :: metric_cells (List.assoc tier c.Pipeline.actual);
        name :: "synthetic" :: metric_cells (List.assoc tier c.Pipeline.synthetic);
      ])
    entry.Registry.focus_tiers

let fig5_one app_name =
  let entry = Registry.by_name app_name in
  let low, med, high = entry.Registry.loads in
  let c = get_clone app_name in
  (* The medium cell is the clone's own; low and high are independent
     cells: validate them on the pool, then print and accumulate errors in
     deterministic order. *)
  let cells =
    Ditto_util.Pool.map pool
      (fun (label, qps) ->
        if label = "med" then (label, qps, med_comparison ~label c)
        else
          let load =
            Ditto_loadgen.Workload.to_load entry.Registry.workload ~qps ~duration ()
          in
          (label, qps, Pipeline.validate ~pool ~platform:Platform.a ~load ~label c.result))
      [ ("low", low); ("med", med); ("high", high) ]
  in
  List.iter
    (fun (label, _, c) ->
      List.iter
        (fun tier ->
          let actual = List.assoc tier c.Pipeline.actual in
          let synth = List.assoc tier c.Pipeline.synthetic in
          record_errors (Metrics.error_pct ~actual ~synthetic:synth);
          (* Latency errors are accumulated below saturation only: the paper
             itself notes p99 divergence at high load from network-stack
             queueing (and reports §6.2.1 averages for CPU/BW metrics). *)
          if label <> "high" then
            record_errors
              (List.map
                 (fun (a, e) -> ("latency " ^ a, e))
                 (Metrics.latency_error_pct ~actual ~synthetic:synth)))
        entry.Registry.focus_tiers)
    cells;
  Table.print ~title:(fmt "Fig. 5 — %s (profiled at medium load only)" app_name)
    ~header:fig5_header
    (List.concat_map
       (fun (label, qps, c) ->
         focus_rows entry (fun tl -> fmt "%s%s@%.0fk" label tl (qps /. 1000.)) c)
       cells)

let fig5 () =
  banner "Figure 5: CPU, network, disk and latency under varying load (Platform A)";
  List.iter (fun (e : Registry.entry) -> fig5_one e.Registry.name) (registry_entries ())

(* {1 Figure 6: Social Network end-to-end latency} *)

let fig6 () =
  banner "Figure 6: Social Network end-to-end latency vs QPS";
  let entry = Registry.by_name "social_network" in
  let { result; _ } = get_clone "social_network" in
  let rows =
    Ditto_util.Pool.map pool
      (fun qps ->
        let load =
          Ditto_loadgen.Workload.to_load entry.Registry.workload ~qps ~duration ()
        in
        let c = Pipeline.validate ~pool ~platform:Platform.a ~load ~label:(fmt "%.0f" qps) result in
        let a = c.Pipeline.actual_end_to_end and s = c.Pipeline.synthetic_end_to_end in
        (* Whole-distribution agreement, not just percentiles. *)
        let ks = Stats.ks_distance c.Pipeline.actual_raw c.Pipeline.synthetic_raw in
        [
          fmt "%.0f" qps;
          ms a.Stats.p50; ms s.Stats.p50;
          ms a.Stats.p95; ms s.Stats.p95;
          ms a.Stats.p99; ms s.Stats.p99;
          fmt "%.3f" ks;
        ])
      Ditto_apps.Social_network.fig6_qps
  in
  Table.print ~title:"Fig. 6 — end-to-end latency (every tier replaced by its clone)"
    ~header:[ "QPS"; "act p50"; "syn p50"; "act p95"; "syn p95"; "act p99"; "syn p99"; "KS" ]
    rows

(* {1 Figure 7: cross-platform validation (profiled on A only)} *)

let fig7 () =
  banner "Figure 7: portability across platforms (profiled on A, no reprofiling)";
  List.iter
    (fun (entry : Registry.entry) ->
      let _, med, _ = entry.Registry.loads in
      let clone = get_clone entry.Registry.name in
      let cells =
        Ditto_util.Pool.map pool
          (fun (plat : Platform.t) ->
            let label = plat.Platform.name in
            (* A is the clone's own medium cell. B and C are smaller
               machines: drive them at a fraction of A's medium load, same
               for original and synthetic. *)
            if label = "A" then (label, med_comparison ~label clone)
            else
              let load =
                Ditto_loadgen.Workload.to_load entry.Registry.workload ~qps:(med /. 2.5)
                  ~duration ()
              in
              (label, Pipeline.validate ~pool ~platform:plat ~load ~label clone.result))
          [ Platform.a; Platform.b; Platform.c ]
      in
      Table.print
        ~title:(fmt "Fig. 7 — %s across platforms" entry.Registry.name)
        ~header:fig5_header
        (List.concat_map (fun (label, c) -> focus_rows entry (fun tl -> label ^ tl) c) cells))
    (registry_entries ())

(* {1 Figure 8: CPI top-down breakdown} *)

let fig8 () =
  banner "Figure 8: cycles-per-instruction top-down breakdown (A: actual, S: synthetic)";
  let rows = ref [] in
  List.iter
    (fun (entry : Registry.entry) ->
      let c = med_comparison ~label:"topdown" (get_clone entry.Registry.name) in
      List.iter
        (fun tier ->
          let show who (m : Metrics.t) =
            let td = Counters.topdown_cpi m.Metrics.counters in
            [
              fmt "%s/%s" tier who;
              fmt "%.3f" (Counters.cpi m.Metrics.counters);
              fmt "%.3f" td.Counters.retiring;
              fmt "%.3f" td.Counters.frontend;
              fmt "%.3f" td.Counters.bad_speculation;
              fmt "%.3f" td.Counters.backend;
            ]
          in
          rows := show "S" (List.assoc tier c.Pipeline.synthetic) :: !rows;
          rows := show "A" (List.assoc tier c.Pipeline.actual) :: !rows)
        entry.Registry.focus_tiers)
    (registry_entries ());
  Table.print ~title:"Fig. 8 — CPI breakdown"
    ~header:[ "service"; "CPI"; "retiring"; "frontend"; "bad spec"; "backend" ]
    (List.rev !rows)

(* {1 Figure 9: accuracy decomposition for MongoDB} *)

let fig9 () =
  banner "Figure 9: IPC/instructions/cycles/p99 as Ditto adds sophistication (MongoDB)";
  let { load; result; med; _ } = get_clone "mongodb" in
  let cfg = Runner.config Platform.a in
  let rows = ref [] in
  let add_output label out =
    let m = Runner.tier_metrics out "mongodb" in
    let c = m.Metrics.counters in
    let per_req v = v /. float_of_int (max 1 (List.assoc "mongodb" out.Runner.measured).Measure.requests_measured) in
    rows :=
      [
        label;
        fmt "%.3f" (Counters.ipc c);
        fmt "%.0f" (per_req (float_of_int c.Counters.insts));
        fmt "%.0f" (per_req (Counters.cycles c));
        ms m.Metrics.lat_p99;
      ]
      :: !rows
  in
  let add label spec = add_output label (Runner.run cfg ~load spec) in
  add_output "target (original)" result.Pipeline.reference;
  List.iter
    (fun (stage, label) ->
      let features = Ditto_gen.Body_gen.stage stage in
      let synth = Ditto_gen.Clone.synth_app ~features result.Pipeline.profile in
      add (fmt "%c:%s" stage label) synth)
    [
      ('A', "skeleton"); ('B', "+syscalls"); ('C', "+#insts"); ('D', "+inst mix");
      ('E', "+branch"); ('F', "+I-mem"); ('G', "+D-mem"); ('H', "+data dep");
    ];
  add_output "I:+tune (final clone)" med;
  add "user-level baseline" (Ditto_baseline.Userlevel_clone.synth_app result.Pipeline.profile);
  Table.print ~title:"Fig. 9 — decomposition of Ditto's accuracy (MongoDB, medium load)"
    ~header:[ "stage"; "IPC"; "insts/req"; "cycles/req"; "p99 ms" ]
    (List.rev !rows)

(* {1 Figure 10: interference on NGINX} *)

let fig10 () =
  banner "Figure 10: interference impact on NGINX (profiled in isolation)";
  let { load; result; _ } = get_clone "nginx" in
  let scenarios =
    [
      ("Orig.", fun p -> Runner.config p);
      ( "HT",
        fun p ->
          Runner.config ~stressor:Ditto_apps.Stressors.cpu_spin ~stressor_placement:`Same_core
            ~smt_pressure:0.55 p );
      ( "L1d",
        fun p ->
          Runner.config ~stressor:Ditto_apps.Stressors.l1d ~stressor_placement:`Same_core
            ~smt_pressure:0.8 p );
      ( "L2",
        fun p ->
          Runner.config ~stressor:Ditto_apps.Stressors.l2 ~stressor_placement:`Same_core
            ~smt_pressure:0.8 p );
      ( "LLC",
        fun p ->
          Runner.config ~stressor:Ditto_apps.Stressors.llc ~stressor_placement:`Other_core p );
      ("Net", fun p -> Runner.config ~net_interference_gbps:6.0 p);
    ]
  in
  let rows =
    (* Each interference scenario is an independent cell; run them on the
       pool and keep the printed order. *)
    List.concat
    @@ Ditto_util.Pool.map pool
      (fun (label, config_of) ->
        let c = Pipeline.validate ~pool ~config_of ~platform:Platform.a ~load ~label result in
        let show who (m : Metrics.t) =
          [
            fmt "%s/%s" label who;
            fmt "%.3f" m.Metrics.ipc;
            ms m.Metrics.lat_p99;
            pct m.Metrics.l1i_miss_rate;
            pct m.Metrics.l1d_miss_rate;
            pct m.Metrics.l2_miss_rate;
            pct m.Metrics.llc_miss_rate;
          ]
        in
        [
          show "A" (List.assoc "nginx" c.Pipeline.actual);
          show "S" (List.assoc "nginx" c.Pipeline.synthetic);
        ])
      scenarios
  in
  Table.print ~title:"Fig. 10 — NGINX under co-located interference (A: actual, S: synthetic)"
    ~header:[ "interf."; "IPC"; "p99 ms"; "L1i"; "L1d"; "L2"; "LLC" ]
    rows

(* {1 Figure 11: core count x frequency power-management heatmap} *)

(* Deployment-level scaling knob (memcached -t N): applies to original and
   clone identically, no reprofiling (the paper's "Portability" bullet). *)
let with_workers (spec : Spec.t) n =
  {
    spec with
    Spec.tiers =
      List.map
        (fun (t : Spec.tier) ->
          { t with Spec.thread_model = { t.Spec.thread_model with Spec.workers = n } })
        spec.Spec.tiers;
  }

let fig11 () =
  banner "Figure 11: Memcached p99 under CPU core and frequency scaling (QoS = 1ms)";
  (* A compute-bound configuration (12-key multigets of 512B values): with
     4KB single GETs the NIC binds first and neither cores nor frequency
     move the latency. Cloned once, at the default platform. *)
  let original = Ditto_apps.Memcached.spec_multiget ~keys:12 ~value_bytes:512 () in
  let profile_load =
    Ditto_loadgen.Workload.to_load Ditto_apps.Memcached.workload ~qps:60_000. ~duration:0.5 ()
  in
  let result = Pipeline.clone ~pool ~platform:Platform.a ~load:profile_load original in
  let load =
    Ditto_loadgen.Workload.to_load Ditto_apps.Memcached.workload ~qps:150_000. ~duration:0.3 ()
  in
  let cores_axis = [ 4; 6; 8; 10; 12; 14; 16 ] in
  let freq_axis = [ 2.1; 1.9; 1.7; 1.5; 1.3; 1.1 ] in
  let qos = 1e-3 in
  (* One validate per cell serves both grids. The 42 cells are independent,
     so they fan out over the pool; the grids regroup them by frequency. *)
  let cell (freq, cores) =
    let plat = Platform.with_frequency Platform.a freq in
    (* scale worker threads with the allotted cores *)
    let scaled =
      {
        result with
        Pipeline.original = with_workers result.Pipeline.original cores;
        synthetic = with_workers result.Pipeline.synthetic cores;
      }
    in
    let c =
      Pipeline.validate ~pool
        ~config_of:(fun p -> Runner.config ~cores ~requests:140 p)
        ~platform:plat ~load
        ~label:(fmt "%dc@%.1f" cores freq)
        scaled
    in
    ((freq, cores), c)
  in
  let flat =
    Ditto_util.Pool.map pool cell
      (List.concat_map (fun f -> List.map (fun c -> (f, c)) cores_axis) freq_axis)
  in
  let cells =
    List.map
      (fun freq ->
        ( freq,
          List.filter_map
            (fun ((f, cores), c) -> if f = freq then Some (cores, c) else None)
            flat ))
      freq_axis
  in
  let grid which =
    let rows =
      List.map
        (fun (freq, row) ->
          fmt "%.1fGHz" freq
          :: List.map
               (fun (_, c) ->
                 let s =
                   match which with
                   | `Actual -> c.Pipeline.actual_end_to_end
                   | `Synthetic -> c.Pipeline.synthetic_end_to_end
                 in
                 if s.Stats.p99 > qos then "X" else fmt "%.2f" (1e3 *. s.Stats.p99))
               row)
        cells
    in
    Table.print
      ~title:
        (fmt "Fig. 11 — %s Memcached p99 (ms; X = QoS violated)"
           (match which with `Actual -> "actual" | `Synthetic -> "synthetic"))
      ~header:("freq \\ cores" :: List.map string_of_int cores_axis)
      rows
  in
  grid `Actual;
  grid `Synthetic

(* {1 E1: error summary (after fig5)} *)

let errors () =
  banner "Error summary (per-axis mean absolute error across apps/loads, cf. §6.2.1)";
  if Hashtbl.length error_acc = 0 then fig5 ();
  let rows =
    Hashtbl.fold (fun axis values acc -> (axis, !values) :: acc) error_acc []
    |> List.sort (fun (a, _) (b, _) -> compare a b)
    |> List.map (fun (axis, vs) ->
           [ axis; fmt "%.1f%%" (mean vs); string_of_int (List.length vs) ])
  in
  Table.print ~title:"Average validation errors"
    ~header:[ "metric"; "mean error"; "samples" ]
    rows;
  Printf.printf
    "\n(paper, §6.2.1: IPC 4.1%%, branch 9.9%%, L1i 7.1%%, L1d 5.1%%, L2 6.9%%, LLC 12.1%%,\n\
    \ network BW 0.1%%, disk BW 0.1%%)\n"

(* {1 Ablation: tuned clone vs untuned clone vs user-level baseline} *)

let ablation () =
  banner "Ablation: what end-to-end cloning and tuning buy (per-metric mean error, medium load)";
  let axes = [ "IPC"; "Branch"; "L1i"; "L1d"; "L2"; "LLC"; "p99" ] in
  let acc = Hashtbl.create 8 in
  List.iter
    (fun (entry : Registry.entry) ->
      let { load; result; med; _ } = get_clone entry.Registry.name in
      let cfg = Runner.config Platform.a in
      (* The tuned clone and the original both already ran at this exact
         (config, load): the stored run and the clone's reference. *)
      let actual_out = result.Pipeline.reference in
      let variants =
        [
          ("ditto (untuned)", Ditto_gen.Clone.synth_app result.Pipeline.profile);
          ("user-level baseline", Ditto_baseline.Userlevel_clone.synth_app result.Pipeline.profile);
        ]
      in
      let outs =
        ("ditto (tuned)", med)
        :: Ditto_util.Pool.map pool
             (fun (variant, spec) -> (variant, Runner.run cfg ~load spec))
             variants
      in
      List.iter
        (fun (variant, out) ->
          List.iter
            (fun tier ->
              let actual = List.assoc tier actual_out.Runner.per_tier in
              match List.assoc_opt tier out.Runner.per_tier with
              | Some synthetic ->
                  List.iter
                    (fun (axis, e) -> if List.mem axis axes then add_sample acc (variant, axis) e)
                    (Metrics.error_pct ~actual ~synthetic
                    @ Metrics.latency_error_pct ~actual ~synthetic)
              | None -> ())
            entry.Registry.focus_tiers)
        outs)
    (registry_entries ());
  let rows =
    List.map
      (fun variant ->
        variant
        :: List.map
             (fun axis ->
               match Hashtbl.find_opt acc (variant, axis) with
               | Some xs -> fmt "%.1f%%" (mean !xs)
               | None -> "-")
             axes)
      [ "ditto (tuned)"; "ditto (untuned)"; "user-level baseline" ]
  in
  Table.print ~title:"mean error vs original across the six services"
    ~header:("variant" :: axes)
    rows;
  print_endline
    "
(the user-level baseline models no kernel work, I/O or skeleton: its
    \ counters can look plausible while its latency is far off — the paper's
    \ §2.3 argument for end-to-end cloning)"

(* {1 Bechamel micro-benchmarks of the simulation kernels} *)

let micro () =
  banner "Bechamel micro-benchmarks (simulation kernels)";
  let open Bechamel in
  let open Toolkit in
  let cache_bench =
    let c = Ditto_uarch.Cache.create ~size_bytes:32768 ~assoc:8 () in
    let i = ref 0 in
    Test.make ~name:"cache.access"
      (Staged.stage (fun () ->
           incr i;
           ignore (Ditto_uarch.Cache.access c (!i * 64))))
  in
  let predictor_bench =
    let bp = Ditto_uarch.Branch_pred.create ~entries:16384 ~btb_entries:4096 () in
    let k = ref 0 in
    Test.make ~name:"branch.predict"
      (Staged.stage (fun () ->
           incr k;
           ignore
             (Ditto_uarch.Branch_pred.predict_and_update bp ~pc:0x100
                ~taken:(Ditto_isa.Block.branch_outcome ~m:2 ~n:4 !k))))
  in
  let engine_bench =
    Test.make ~name:"des.1000-events"
      (Staged.stage (fun () ->
           let e = Ditto_sim.Engine.create () in
           Ditto_sim.Engine.spawn e (fun () ->
               for _ = 1 to 1000 do
                 Ditto_sim.Engine.wait 1e-6
               done);
           Ditto_sim.Engine.run e))
  in
  (* 1,000 processes parked in [wait] at once, each woken twice at spread
     times: push and pop against a heap of about a thousand live events. *)
  let engine_pending_bench =
    Test.make ~name:"des.1000-pending"
      (Staged.stage (fun () ->
           let e = Ditto_sim.Engine.create () in
           for i = 0 to 999 do
             Ditto_sim.Engine.spawn e (fun () ->
                 Ditto_sim.Engine.wait (float_of_int (i * 7919 mod 1000) *. 1e-6);
                 Ditto_sim.Engine.wait 1e-3)
           done;
           Ditto_sim.Engine.run e))
  in
  (* 24 client connections, ten RPCs each with a client-side timeout,
     served by one epoll worker that drains and replies: socket send and
     delivery, epoll readiness, and beaten timeouts on both sides. *)
  let epoll_rpc_bench =
    let module Socket = Ditto_net.Socket in
    let conns = 24 and rpcs = 10 in
    Test.make ~name:"socket.epoll-rpc"
      (Staged.stage (fun () ->
           let e = Ditto_sim.Engine.create () in
           let nic () = Ditto_net.Nic.create e ~gbps:10.0 in
           let server_nic = nic () in
           let epoll = Socket.Epoll.create () in
           let clients =
             List.init conns (fun _ ->
                 let c, s = Socket.pair e ~a_nic:(nic ()) ~b_nic:server_nic ~latency:20e-6 in
                 Socket.Epoll.add epoll s;
                 c)
           in
           let served = ref 0 in
           let rec drain s =
             match Socket.try_recv_msg s with
             | Some _ ->
                 incr served;
                 Socket.send s ~bytes:64;
                 drain s
             | None -> ()
           in
           Ditto_sim.Engine.spawn e (fun () ->
               while !served < conns * rpcs do
                 List.iter drain (Socket.Epoll.wait ~timeout:0.1 epoll)
               done);
           List.iter
             (fun c ->
               Ditto_sim.Engine.spawn e (fun () ->
                   for _ = 1 to rpcs do
                     Socket.send c ~bytes:64;
                     ignore (Socket.recv_msg_timeout c ~timeout:0.01)
                   done))
             clients;
           Ditto_sim.Engine.run e))
  in
  let core_bench =
    let mem = Ditto_uarch.Memory.create Platform.a ~ncores:1 in
    let core = Ditto_uarch.Core_model.create mem ~core:0 in
    let block =
      Ditto_isa.Block.make ~label:"bench" ~code_base:0x100000
        (List.init 64 (fun i ->
             Ditto_isa.Block.temp
               (Ditto_isa.Iform.by_name "ADD_GPR64_GPR64")
               ~dst:(i mod 8)
               ~srcs:[| (i + 1) mod 8 |]))
    in
    let rng = Ditto_util.Rng.create 1 in
    Test.make ~name:"core.6400-insts"
      (Staged.stage (fun () -> Ditto_uarch.Core_model.exec_block core ~rng block ~iterations:100))
  in
  (* The same 64-temp block shape with every template a load from a 16 MB
     region at uniformly random lines: the TLB, cache-hierarchy and RNG
     side of the measure layer. *)
  let core_loads_bench =
    let mem = Ditto_uarch.Memory.create Platform.a ~ncores:1 in
    let core = Ditto_uarch.Core_model.create mem ~core:0 in
    let region = Ditto_isa.Block.make_region ~base:0x10000000 ~bytes:(1 lsl 24) ~shared:false in
    let block =
      Ditto_isa.Block.make ~label:"bench-loads" ~code_base:0x100000
        (List.init 64 (fun i ->
             Ditto_isa.Block.temp
               (Ditto_isa.Iform.by_name "MOV_GPR64_MEM")
               ~dst:(i mod 8)
               ~mem:(Ditto_isa.Block.Rand_uniform { region; start = 0; span = 1 lsl 24 })))
    in
    let rng = Ditto_util.Rng.create 1 in
    Test.make ~name:"core.6400-loads"
      (Staged.stage (fun () -> Ditto_uarch.Core_model.exec_block core ~rng block ~iterations:100))
  in
  (* One 512-byte socket write's kernel path: the branchy load/store
     templates every request, warm-up and housekeeping tick executes, then
     the REP MOVSB copy. Its mix of mostly-hitting loads, stores, branches
     and ALU work is the one measurement runs spend their time in. *)
  let core_kernel_bench =
    let mem = Ditto_uarch.Memory.create Platform.a ~ncores:1 in
    let core = Ditto_uarch.Core_model.create mem ~core:0 in
    let streams =
      Ditto_os.Syscall.Kernel.streams (Ditto_os.Syscall.Sock_write { bytes = 512 })
    in
    let rng = Ditto_util.Rng.create 1 in
    Test.make ~name:"core.kernel-path"
      (Staged.stage (fun () ->
           List.iter
             (fun (block, iterations) ->
               Ditto_uarch.Core_model.exec_block core ~rng block ~iterations)
             streams))
  in
  (* A sequential read of twice the cache's capacity: under LRU every page
     misses and evicts, the path Measure.run's page-cache warm-up takes. *)
  let page_cache_bench =
    let capacity_bytes = 16 lsl 20 in
    let pc = Ditto_os.Page_cache.create ~capacity_bytes in
    Test.make ~name:"page_cache.warm"
      (Staged.stage (fun () ->
           ignore (Ditto_os.Page_cache.read pc ~offset:0 ~bytes:(2 * capacity_bytes))))
  in
  (* Profiling one redis tier: the instrumented stream feeding every
     profiler, including the working-set sweep over 23 cache sizes. *)
  let profile_bench =
    let app = Ditto_apps.Redis.spec () in
    Test.make ~name:"profile.redis"
      (Staged.stage (fun () -> ignore (Ditto_profile.Tier_profile.profile_app ~requests:80 app)))
  in
  let gen_bench =
    let app = Ditto_apps.Redis.spec () in
    let profile = Ditto_profile.Tier_profile.profile_app ~requests:30 ~seed:7 app in
    Test.make ~name:"gen.clone-redis"
      (Staged.stage (fun () -> ignore (Ditto_gen.Clone.synth_app profile)))
  in
  let tests =
    [
      cache_bench;
      predictor_bench;
      engine_bench;
      engine_pending_bench;
      epoll_rpc_bench;
      core_bench;
      core_loads_bench;
      core_kernel_bench;
      page_cache_bench;
      profile_bench;
      gen_bench;
    ]
  in
  let instances = Instance.[ monotonic_clock ] in
  let cfg = Benchmark.cfg ~limit:1000 ~quota:(Time.second 0.5) ~kde:(Some 1000) () in
  let ols = Analyze.ols ~bootstrap:0 ~r_square:true ~predictors:[| Measure.run |] in
  List.iter
    (fun test ->
      let results = Benchmark.all cfg instances test in
      let results = Analyze.all ols Instance.monotonic_clock results in
      Hashtbl.iter
        (fun name ols_result ->
          match Analyze.OLS.estimates ols_result with
          | Some [ est ] -> Printf.printf "  %-22s %12.1f ns/iter\n%!" name est
          | _ -> Printf.printf "  %-22s (no estimate)\n%!" name)
        results)
    tests

(* {1 Clone-accuracy scorecards (fidelity observatory)} *)

module Scorecard = Ditto_report.Scorecard

let scorecards_tbl : (string, Scorecard.t) Hashtbl.t = Hashtbl.create 8

let scorecards () =
  banner "Clone-accuracy scorecards (per tier x per counter, medium load, 95% target)";
  List.iter
    (fun (entry : Registry.entry) ->
      let name = entry.Registry.name in
      let clone = get_clone name in
      let c = med_comparison ~label:"med" clone in
      let card =
        Scorecard.of_comparison ~app:name ?tuning:clone.result.Pipeline.tuning c
      in
      Scorecard.print card;
      Hashtbl.replace scorecards_tbl name card)
    (registry_entries ())

(* {1 Validation gates: chaos, timeline, critpath, surge}

   One experiment per Ditto_report.Gate, each running its default scenario
   on every requested app. The flat keys feed the --json document's gate
   sections and, through Baseline.flatten, the regression gate. *)

module Gate = Ditto_report.Gate

let gate_keys : (Gate.t * (string * float) list) list ref = ref []

let gate g () =
  banner (fmt "Validation gate: %s (medium load, platform A)" (Gate.name g));
  let keys =
    List.concat_map
      (fun (entry : Registry.entry) ->
        let name = entry.Registry.name in
        let { load; result; _ } = get_clone name in
        let r = Gate.run ~pool g ~app:name ~load result in
        Gate.print r;
        Gate.flat r)
      (registry_entries ())
  in
  gate_keys := (g, List.sort compare keys) :: !gate_keys

(* {1 Synth scale: production-shaped graphs through the full pipeline}

   One experiment per registered graph size, so each stage lands its own
   "experiments/<name>/wall_seconds" budget in the committed baseline and
   `bench --check` gates scaling speed alongside fidelity. synth-100 is
   cloned with tuning and contributes its scorecard to the fidelity gate
   (the paper's 95% bar); the 500- and 1000-tier graphs run untuned —
   their budgets pin that clone+validate stays far below the naive
   per-tier extrapolation from social_network (~6.4 s/tier at BENCH_4,
   i.e. ~6400 s for 1000 tiers; the committed budgets demand >= 5x better). *)

let synth_one ~tune n () =
  let name = Ditto_gen.Topology.app_name n in
  banner (fmt "Synth scale: %s (%s)" name (if tune then "tuned" else "untuned"));
  let entry = Registry.by_name name in
  let _, med, _ = entry.Registry.loads in
  let load =
    Ditto_loadgen.Workload.to_load entry.Registry.workload ~qps:med ~duration:0.4 ()
  in
  let t0 = wall () in
  let result = Pipeline.clone ~pool ~tune ~platform:Platform.a ~load (entry.Registry.spec ()) in
  let cloned = wall () -. t0 in
  clone_secs := (name, cloned) :: !clone_secs;
  let clone = { load; result; med = med_run ~load result; secs = cloned } in
  let c = med_comparison ~label:"synth" clone in
  let card = Scorecard.of_comparison ~app:name ?tuning:result.Pipeline.tuning c in
  Hashtbl.replace clones name clone;
  (* A 1000-tier scorecard is ~12k rows; print the verdict, not the table. *)
  let knob_rows =
    List.filter (fun (r : Scorecard.row) -> r.Scorecard.knob_group <> None) card.Scorecard.rows
  in
  let knob_pass = List.length (List.filter (fun (r : Scorecard.row) -> r.Scorecard.pass) knob_rows) in
  let secs = wall () -. t0 in
  Printf.printf
    "[synth] %s: clone %.1fs, clone+validate %.1fs (%.2f s/tier); scorecard %s (%d/%d counter \
     rows within 5%%); peak heap events %d\n%!"
    name cloned secs
    (secs /. float_of_int n)
    (if Scorecard.passed card then "PASS" else "FAIL")
    knob_pass (List.length knob_rows)
    (Ditto_sim.Engine.global_peak_heap_events ());
  if tune then Hashtbl.replace scorecards_tbl name card

(* {1 Main} *)

(* Every experiment: its name, whether a run that names no experiment
   includes it, the registry clones it reads (the preclone pass makes
   exactly those before the ordered, printing experiment loop starts) and
   its body. fig11 and micro build their own specs; the validation gates
   and the synth scale stages run only when named. *)
let experiments =
  let registry () = List.map (fun (e : Registry.entry) -> e.Registry.name) (registry_entries ()) in
  let app name () = [ name ] and none () = [] in
  [
    ("table1", true, none, table1);
    ("fig5", true, registry, fig5);
    ("fig6", true, app "social_network", fig6);
    ("fig7", true, registry, fig7);
    ("fig8", true, registry, fig8);
    ("fig9", true, app "mongodb", fig9);
    ("fig10", true, app "nginx", fig10);
    ("fig11", true, none, fig11);
    ("errors", true, registry, errors);
    ("ablation", true, registry, ablation);
    ("scorecards", true, registry, scorecards);
    ("micro", true, none, micro);
  ]
  @ List.map (fun g -> (Gate.name g, false, registry, gate g)) Gate.all
  @ [
      ("synth100", false, none, synth_one ~tune:true 100);
      ("synth500", false, none, synth_one ~tune:false 500);
      ("synth1000", false, none, synth_one ~tune:false 1000);
    ]

module Baseline = Ditto_report.Baseline
module Bench_json = Ditto_report.Bench_json

let default_baseline_path = "bench/baselines/default.json"

(* Parse a JSON file named on the command line with [f], or exit 2 naming
   the file: a missing, truncated or foreign document is a usage error,
   not a crash. *)
let read_json_or_exit path f =
  match f (Ditto_util.Jsonx.load path) with
  | v -> v
  | exception (Sys_error reason | Ditto_util.Jsonx.Parse_error reason) ->
      Printf.eprintf "[bench] cannot read %s: %s\n" path reason;
      exit 2

(* Diff [current] (flattened metrics) against the baseline file; prints the
   verdict and returns false on regression, or when the two share no
   metric at all (a truncated or foreign document must not pass). *)
let run_check ~baseline_path current =
  if not (Sys.file_exists baseline_path) then begin
    Printf.eprintf
      "[bench] --check: baseline %s not found (run with --update-baselines first)\n"
      baseline_path;
    exit 2
  end;
  let baseline = read_json_or_exit baseline_path Baseline.of_json in
  (* A filtered run's total wall covers only the experiments it ran, so
     gating it against the full-sweep pin would flag any subset slower
     than the whole default sweep (the synth stages alone are). Rebuild
     the pinned total as the sum of the pinned per-stage walls for the
     stages present in [current]; if any stage is new to the baseline the
     total is dropped and only the per-stage budgets gate. *)
  let baseline =
    let total_key = "experiments/total/wall_seconds" in
    let is_stage_wall k =
      k <> total_key
      && String.starts_with ~prefix:"experiments/" k
      && String.ends_with ~suffix:"/wall_seconds" k
    in
    let stage_keys = List.filter_map (fun (k, _) -> if is_stage_wall k then Some k else None) current in
    let pinned = List.map (fun k -> List.assoc_opt k baseline.Baseline.metrics) stage_keys in
    if List.mem_assoc total_key baseline.Baseline.metrics && stage_keys <> [] then
      let metrics = List.remove_assoc total_key baseline.Baseline.metrics in
      let metrics =
        if List.for_all Option.is_some pinned then
          (total_key, List.fold_left (fun acc v -> acc +. Option.get v) 0.0 pinned) :: metrics
        else metrics
      in
      { baseline with Baseline.metrics }
    else baseline
  in
  let regressions, checked = Baseline.diff baseline current in
  match regressions with
  | [] when checked = 0 ->
      Printf.printf "[bench] check FAILED: no metric in common with %s\n" baseline_path;
      false
  | [] ->
      Printf.printf "[bench] check OK: %d metric(s) within tolerance of %s\n" checked
        baseline_path;
      true
  | regs ->
      Printf.printf "[bench] check FAILED: %d of %d metric(s) regressed vs %s\n"
        (List.length regs) checked baseline_path;
      List.iter
        (fun (r : Baseline.regression) ->
          Printf.printf "  %-45s %.2f%% -> %.2f%% (allowed +%.1fpp)\n" r.Baseline.key
            r.Baseline.baseline r.Baseline.current r.Baseline.allowed_pp)
        regs;
      false

let () =
  let t0 = wall () in
  let json_file = ref None
  and trace_file = ref None
  and trace_jaeger_file = ref None
  and check = ref false
  and baseline_file = ref None
  and update_baselines = ref false
  and check_json = ref None
  and update_json = ref None in
  (* Each value flag takes the next word. *)
  let value_flags =
    let set r v = r := Some v in
    [
      ("--json", set json_file);
      ("--trace", set trace_file);
      ("--trace-jaeger", set trace_jaeger_file);
      ("--apps", fun apps -> apps_filter := Some (String.split_on_char ',' apps));
      ("--baseline", set baseline_file);
      ("--check-json", set check_json);
      ("--update-baselines-json", set update_json);
    ]
  in
  let rec parse_args acc = function
    | [] -> List.rev acc
    | "--check" :: rest ->
        check := true;
        parse_args acc rest
    | "--update-baselines" :: rest ->
        update_baselines := true;
        parse_args acc rest
    | flag :: rest when List.mem_assoc flag value_flags -> (
        match rest with
        | v :: rest ->
            List.assoc flag value_flags v;
            parse_args acc rest
        | [] ->
            Printf.eprintf "%s requires an argument\n" flag;
            exit 2)
    | a :: rest -> parse_args (a :: acc) rest
  in
  let names = parse_args [] (List.tl (Array.to_list Sys.argv)) in
  let baseline_path = Option.value ~default:default_baseline_path !baseline_file in
  (* Merge into the committed baseline (keeping its tolerances): a partial
     run — --apps, a single gate — refreshes its slice without discarding
     everyone else's metrics. *)
  let update_baseline metrics =
    let next =
      if Sys.file_exists baseline_path then
        Baseline.merge ~into:(read_json_or_exit baseline_path Baseline.of_json) metrics
      else Baseline.make metrics
    in
    Baseline.save ~path:baseline_path next;
    Printf.printf "[bench] wrote baseline %s\n" baseline_path
  in
  (* --check-json gates a saved --json document without re-running anything;
     --update-baselines-json likewise refreshes the baseline from one. *)
  (match !update_json with
  | None -> ()
  | Some path ->
      update_baseline (read_json_or_exit path Baseline.flatten);
      exit 0);
  (match !check_json with
  | None -> ()
  | Some path ->
      let current = read_json_or_exit path Baseline.flatten in
      exit (if run_check ~baseline_path current then 0 else 1));
  if !trace_file <> None || !trace_jaeger_file <> None then Obs.enable ();
  let selected =
    match names with
    | [] -> List.filter (fun (_, default, _, _) -> default) experiments
    | names ->
        List.map
          (fun n ->
            match List.find_opt (fun (name, _, _, _) -> name = n) experiments with
            | Some e -> e
            | None ->
                Printf.eprintf "unknown experiment %S (have: %s; flags: --json FILE)\n" n
                  (String.concat ", " (List.map (fun (name, _, _, _) -> name) experiments));
                exit 2)
          names
  in
  (* Per-stage scheduling telemetry: wall seconds, the parallelism degree
     offered, and busy/(domains x wall) — the fraction of the stage's
     capacity actually spent executing pool tasks. *)
  let domains = Ditto_util.Pool.size pool in
  let busy () = (Ditto_util.Pool.stats ()).Ditto_util.Pool.busy_seconds in
  let experiment_record name f =
    let te0 = wall () and b0 = busy () in
    f ();
    let secs = wall () -. te0 in
    let eff =
      if secs <= 0.0 then 0.0
      else Float.min 1.0 ((busy () -. b0) /. (float_of_int domains *. secs))
    in
    {
      Bench_json.exp_name = name;
      exp_seconds = secs;
      exp_domains = domains;
      exp_parallel_efficiency = eff;
    }
  in
  let preclone_record =
    experiment_record "preclone" (fun () ->
        preclone
          (List.sort_uniq compare (List.concat_map (fun (_, _, needs, _) -> needs ()) selected)))
  in
  let timings =
    preclone_record :: List.map (fun (name, _, _, run) -> experiment_record name run) selected
  in
  let total = wall () -. t0 in
  Printf.printf "\n[bench] total wall time %.1fs (%d domain(s))\n" total domains;
  List.iter
    (fun (e : Bench_json.experiment) ->
      Printf.printf "[bench]   %-12s %6.1fs  (eff %.2f on %d domain(s))\n" e.Bench_json.exp_name
        e.Bench_json.exp_seconds e.Bench_json.exp_parallel_efficiency e.Bench_json.exp_domains)
    timings;
  (* The v3 --json document doubles as the regression-gate input, so it is
     assembled whenever --json, --check or --update-baselines asked for it. *)
  let doc =
    if !json_file = None && not (!check || !update_baselines) then None
    else begin
      let errors =
        Hashtbl.fold (fun axis values acc -> (axis, mean !values) :: acc) error_acc []
        |> List.sort (fun (a, _) (b, _) -> compare a b)
      in
      (* Per-app tuner trajectory: iterations with per-counter errors and the
         knob vectors kept at each step (see README for the schema). *)
      let tuning =
        Hashtbl.fold
          (fun name { result; _ } acc ->
            match result.Pipeline.tuning with
            | Some report -> (name, Ditto_tune.Tuner.report_to_json report) :: acc
            | None -> acc)
          clones []
        |> List.sort (fun (a, _) (b, _) -> compare a b)
      in
      let cards =
        Hashtbl.fold (fun _ card acc -> card :: acc) scorecards_tbl []
        |> List.sort (fun (a : Scorecard.t) b -> compare a.Scorecard.app b.Scorecard.app)
      in
      Some
        (Bench_json.assemble
           {
             Bench_json.domains = Ditto_util.Pool.size pool;
             total_seconds = total;
             experiments = timings;
             clone_seconds = List.rev !clone_secs;
             mean_error_pct = errors;
             tuning;
             metrics = Obs.Metrics.snapshot ();
             scorecards = cards;
             gates = !gate_keys;
             peak_heap_events = Ditto_sim.Engine.global_peak_heap_events ();
             tier_counts =
               Hashtbl.fold
                 (fun name { result; _ } acc ->
                   (name, List.length result.Pipeline.original.Ditto_app.Spec.tiers) :: acc)
                 clones []
               |> List.sort (fun (a, _) (b, _) -> compare a b);
           })
    end
  in
  (match (!json_file, doc) with
  | Some path, Some json ->
      Ditto_util.Jsonx.save path json;
      Printf.printf "[bench] wrote %s\n" path
  | _ -> ());
  (match (!update_baselines, doc) with
  | true, Some json -> update_baseline (Baseline.flatten json)
  | _ -> ());
  let check_ok =
    match (!check, doc) with
    | true, Some json -> run_check ~baseline_path (Baseline.flatten json)
    | _ -> true
  in
  List.iter (Printf.printf "[bench] %s\n")
    (Obs.Export.write_traces ?chrome:!trace_file ?jaeger:!trace_jaeger_file ());
  if not check_ok then exit 1
