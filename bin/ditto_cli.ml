(* Command-line driver for the Ditto reproduction.

     ditto-cli run <app> [--qps N] [--platform A|B|C]
         run an original model service and print its metrics
     ditto-cli clone <app> [--qps N] [--no-tune] [--save FILE]
         profile, generate and fine-tune a clone; print profile + validation
     ditto-cli synth <profile.json> [--qps N] [--platform A|B|C]
         regenerate a clone from a shared profile file and run it
     ditto-cli export-trace <app> <out.trace>
         export a clone's memory trace in Ramulator format
     ditto-cli stages <app> [--qps N]
         the Fig. 9 decomposition (stages A..H + tuned clone)
     ditto-cli validate <app> [--gates chaos,timeline,critpath,surge] [--no-tune] [--qps N]
                        [--plan NAME|FILE] [--profile NAME|FILE]
                        [--openmetrics FILE] [--jaeger FILE]
         clone once, then run each validation gate (Ditto_report.Gate,
         default all four) against original and clone side by side:
         fidelity under the canonical fault plans (greppable
         "chaos-totals:" line), windowed transient fidelity under
         kill-mid-tier ("TIMELINE-SMOKE-OK"), critical-path divergence
         from sampled request traces ("CRITPATH worst=",
         "CRITPATH-SMOKE-OK") and overload fidelity under kill-mid-tier
         plus a flash crowd ("SURGE-SMOKE-OK"). --plan / --profile
         replace the fault plan / rate profile of every gate's scenario;
         --openmetrics writes the recorded timelines, --jaeger the
         actual side's sampled request span trees; each exits 2 before
         cloning unless some gate records what it writes
     ditto-cli inspect-trace <trace.json>
         parse a Chrome or Jaeger trace back and summarise it
         (span counts, counter series min/mean/max, all roots with
         per-root span counts, recovered DAG, top-10 slowest spans)
     ditto-cli profile <app> [--qps N] [--original] [--out FILE] [--top N]
         where the clone's (or original's) simulated CPU time went, per
         tier, written as a collapsed-stack file for flamegraph.pl / inferno
     ditto-cli list
         list available model applications

   run/clone/stages/validate take [--trace FILE]: record spans of the
   pipeline's own execution and write a Chrome trace-event file plus
   FILE.jaeger.json (or --trace-jaeger FILE); validate adds the recorded
   timelines as counter tracks. *)

module Pipeline = Ditto_core.Pipeline
module Registry = Ditto_apps.Registry
module Platform = Ditto_uarch.Platform
module Obs = Ditto_obs.Obs
open Ditto_app

(* Self-trace [f] when --trace or --trace-jaeger asked for it, and write
   the exports even when [f] raises. [f] returns extra Chrome events
   (timeline counter tracks) for the trace file. *)
let with_tracing trace trace_jaeger f =
  if trace = None && trace_jaeger = None then ignore (f ())
  else begin
    Obs.enable ();
    let events = ref [] in
    Fun.protect
      ~finally:(fun () ->
        List.iter (Printf.printf "trace: %s\n")
          (Obs.Export.write_traces ~events:!events ?chrome:trace ?jaeger:trace_jaeger ()))
      (fun () -> events := f ())
  end

let load_for name qps duration =
  let entry = Registry.by_name name in
  let _, med, _ = entry.Registry.loads in
  let qps = match qps with Some q -> q | None -> med in
  (entry, Ditto_loadgen.Workload.to_load entry.Registry.workload ~qps ~duration ())

let print_tiers out =
  Ditto_util.Table.print ~title:"per-tier metrics" ~header:Metrics.header
    (List.map (fun (_, m) -> Metrics.pp_row m) out.Runner.per_tier);
  let s = out.Runner.end_to_end in
  Printf.printf "end-to-end: avg=%.3fms p95=%.3fms p99=%.3fms n=%d\n"
    (1e3 *. s.Ditto_util.Stats.mean) (1e3 *. s.Ditto_util.Stats.p95)
    (1e3 *. s.Ditto_util.Stats.p99) s.Ditto_util.Stats.count

let run_app name qps platform trace trace_jaeger =
  with_tracing trace trace_jaeger @@ fun () ->
  let entry, load = load_for name qps 1.0 in
  let plat = Platform.by_name platform in
  let t0 = Unix.gettimeofday () in
  let out = Runner.run (Runner.config plat) ~load (entry.Registry.spec ()) in
  print_tiers out;
  Printf.printf "(wall %.1fs)\n" (Unix.gettimeofday () -. t0);
  []

let clone_app name qps no_tune save trace trace_jaeger =
  with_tracing trace trace_jaeger @@ fun () ->
  let entry, load = load_for name qps 0.8 in
  let t0 = Unix.gettimeofday () in
  let result =
    Pipeline.clone ~tune:(not no_tune) ~platform:Platform.a ~load (entry.Registry.spec ())
  in
  Printf.printf "cloned %s in %.1fs\n\n" name (Unix.gettimeofday () -. t0);
  (match save with
  | Some path ->
      Ditto_profile.Profile_io.save path result.Pipeline.profile;
      Printf.printf "profile written to %s\n" path
  | None -> ());
  (match result.Pipeline.dag with
  | Some dag -> Format.printf "RPC dependency graph:@.%a@." Ditto_trace.Dag.pp dag
  | None -> ());
  List.iter
    (fun tp -> Format.printf "%a@." Ditto_profile.Tier_profile.pp tp)
    result.Pipeline.profile.Ditto_profile.Tier_profile.tiers;
  let c = Pipeline.validate ~platform:Platform.a ~load ~label:"validate" result in
  List.iter
    (fun (tier, errs) ->
      Printf.printf "%s errors: %s\n" tier
        (String.concat "  " (List.map (fun (a, e) -> Printf.sprintf "%s=%.1f%%" a e) errs)))
    (Pipeline.comparison_errors c);
  []

let stages_app name qps trace trace_jaeger =
  with_tracing trace trace_jaeger @@ fun () ->
  let entry, load = load_for name qps 0.8 in
  let result = Pipeline.clone ~platform:Platform.a ~load (entry.Registry.spec ()) in
  let cfg = Runner.config Platform.a in
  let tier0 = (List.hd result.Pipeline.original.Spec.tiers).Spec.tier_name in
  let row label spec =
    let out = Runner.run cfg ~load spec in
    let m = Runner.tier_metrics out tier0 in
    [ label;
      Printf.sprintf "%.3f" m.Metrics.ipc;
      Printf.sprintf "%.3f" (1e3 *. m.Metrics.lat_p99) ]
  in
  let rows =
    row "original" result.Pipeline.original
    :: List.map
         (fun stage ->
           row
             (Printf.sprintf "stage %c" stage)
             (Ditto_gen.Clone.synth_app
                ~features:(Ditto_gen.Body_gen.stage stage)
                result.Pipeline.profile))
         [ 'A'; 'B'; 'C'; 'D'; 'E'; 'F'; 'G'; 'H' ]
    @ [ row "tuned" result.Pipeline.synthetic ]
  in
  Ditto_util.Table.print ~title:"Fig. 9-style decomposition"
    ~header:[ "stage"; "IPC"; "p99 ms" ]
    rows;
  []

(* --plan / --profile: a canonical name, else a JSON file; a file that
   cannot be read or parsed exits 2 with the reason. *)
let named_or_file ~canonical ~name_of ~load sel =
  match List.find_opt (fun x -> name_of x = sel) canonical with
  | Some x -> x
  | None -> (
      match load sel with
      | x -> x
      | exception Sys_error msg ->
          Printf.eprintf "validate: %s (canonical names: %s)\n" msg
            (String.concat ", " (List.map name_of canonical));
          exit 2
      | exception (Ditto_util.Jsonx.Parse_error msg | Invalid_argument msg) ->
          Printf.eprintf "validate: %s: %s\n" sel msg;
          exit 2)

(* The validation gates: clone once, run each gate named by --gates on the
   clone, print its report and greppable line, then export what the gates
   recorded: every timeline (OpenMetrics, and Chrome counter tracks for
   --trace) and the critpath gate's sampled request trees (Jaeger). *)
let validate_app name qps no_tune gate_names plan_sel profile_sel openmetrics jaeger trace
    trace_jaeger =
  let module Plan = Ditto_fault.Plan in
  let module Profile = Ditto_loadgen.Profile in
  let module Gate = Ditto_report.Gate in
  let module Ts = Ditto_obs.Timeseries in
  let module Rq = Ditto_obs.Reqtrace in
  let gates =
    List.map
      (fun n ->
        match Gate.of_name n with
        | Some g -> g
        | None ->
            Printf.eprintf "validate: unknown gate %S (known gates: %s)\n" n
              (String.concat ", " (List.map Gate.name Gate.all));
            exit 2)
      gate_names
  in
  (* An export needs a gate that records it: refuse before cloning. *)
  let needs flag path what records =
    if Option.is_some path && not (List.exists records gates) then begin
      Printf.eprintf "validate: %s needs a gate that records %s: %s\n" flag what
        (String.concat ", " (List.map Gate.name (List.filter records Gate.all)));
      exit 2
    end
  in
  needs "--openmetrics" openmetrics "timelines" Gate.records_timeline;
  needs "--jaeger" jaeger "request traces" Gate.records_reqtrace;
  let entry, load = load_for name qps 0.8 in
  let duration = load.Service.duration in
  let tiers =
    List.map (fun (t : Spec.tier) -> t.Spec.tier_name) (entry.Registry.spec ()).Spec.tiers
  in
  let plan =
    Option.map
      (named_or_file ~canonical:(Plan.canonical ~duration ~tiers)
         ~name_of:(fun (p : Plan.t) -> p.Plan.plan_name)
         ~load:(fun path ->
           let p = Plan.load path in
           Plan.validate ~duration ~tiers p;
           p))
      plan_sel
  in
  let profile =
    Option.map
      (named_or_file ~canonical:(Profile.canonical ~duration)
         ~name_of:(fun (r : Rate.t) -> r.Rate.profile_name)
         ~load:Rate.load)
      profile_sel
  in
  with_tracing trace trace_jaeger @@ fun () ->
  let t0 = Unix.gettimeofday () in
  let result =
    Pipeline.clone ~tune:(not no_tune) ~platform:Platform.a ~load (entry.Registry.spec ())
  in
  Printf.printf "cloned %s in %.1fs\n" name (Unix.gettimeofday () -. t0);
  let runs =
    List.concat_map
      (fun g ->
        let r = Gate.run ?plan ?profile g ~app:name ~load result in
        Gate.print r;
        List.map (fun run -> (Gate.name g, run)) r.Gate.runs)
      gates
  in
  let timelines =
    List.concat_map
      (fun (gate, (run : Gate.run)) ->
        List.filter_map
          (fun (side, (r : Service.result)) ->
            Option.map
              (fun ts -> ([ ("app", name); ("gate", gate); ("side", side) ], ts))
              r.Service.timeline)
          [ ("actual", run.Gate.actual); ("clone", run.Gate.synthetic) ])
      runs
  in
  Option.iter
    (fun path ->
      Out_channel.with_open_text path (fun oc ->
          Out_channel.output_string oc (Ts.openmetrics timelines));
      Printf.printf "openmetrics: wrote %s\n" path)
    openmetrics;
  Option.iter
    (fun path ->
      List.find_map (fun (_, (run : Gate.run)) -> run.Gate.actual.Service.reqtrace) runs
      |> Option.iter (fun rq ->
             Rq.write_jaeger path rq;
             Printf.printf "jaeger: wrote %s (%d sampled trace(s) of %d request(s))\n" path
               (Rq.sampled rq) (Rq.requests_seen rq)))
    jaeger;
  (* Counter tracks (simulated-clock timestamps) land in their own
     processes, one per gate and side, next to the wall-clock pipeline
     spans. *)
  List.concat
    (List.mapi
       (fun i (labels, ts) ->
         Ts.chrome_events ~pid:(100 + i)
           ~process_name:(String.concat " " (List.map snd labels) ^ " (sim time)")
           ts)
       timelines)

(* Scale round trip: generate a production-shaped graph, export its traces
   through the Jaeger writer, recover the DAG from the re-ingested spans,
   check it against the ground truth, then clone and validate the graph
   end-to-end. The closing "SYNTH-SMOKE-OK" line is what CI asserts. *)
let synth_topology n qps platform no_tune save =
  let module Topology = Ditto_gen.Topology in
  let t0 = Unix.gettimeofday () in
  let t = Topology.generate (Topology.default ~tiers:n ()) in
  Printf.printf "generated %s: %d tiers, %d edges, depth %d\n" t.Topology.name n
    (List.length t.Topology.dag.Ditto_trace.Dag.edges)
    (Array.fold_left max 0 t.Topology.layers);
  let json = Ditto_trace.Jaeger.to_string (Topology.spans t) in
  let recovered = Ditto_trace.Dag.of_spans (Ditto_trace.Jaeger.of_string json) in
  if not (Topology.same_shape t.Topology.dag recovered) then begin
    Printf.eprintf "synth: Jaeger round trip lost the DAG shape\n";
    exit 1
  end;
  Printf.printf "trace round trip: %d bytes of Jaeger JSON -> DAG shape preserved\n"
    (String.length json);
  (* Enough default traffic that per-tier request counts converge even on
     rare request-type paths: relative counter errors on a handful of
     requests are single-event noise, not fidelity. *)
  let qps = match qps with Some q -> q | None -> Float.max 50.0 (200_000.0 /. float_of_int n) in
  let load =
    Ditto_loadgen.Workload.to_load Ditto_loadgen.Workload.wrk2_open ~qps ~duration:0.5 ()
  in
  let plat = Platform.by_name platform in
  let result = Pipeline.clone ~tune:(not no_tune) ~platform:plat ~load t.Topology.spec in
  (match save with
  | Some path ->
      Ditto_profile.Profile_io.save path result.Pipeline.profile;
      Printf.printf "profile saved to %s\n" path
  | None -> ());
  let c = Pipeline.validate ~platform:plat ~load ~label:"synth-validate" result in
  let card =
    Ditto_report.Scorecard.of_comparison ~app:t.Topology.name ?tuning:result.Pipeline.tuning c
  in
  Ditto_report.Scorecard.print card;
  let wall = Unix.gettimeofday () -. t0 in
  Printf.printf "peak heap events: %d\n" (Ditto_sim.Engine.global_peak_heap_events ());
  Printf.printf "SYNTH-SMOKE-OK tiers=%d pass=%b wall=%.1fs\n" n
    (Ditto_report.Scorecard.passed card)
    wall

let synth_profile path qps platform no_tune save =
  match Ditto_gen.Topology.parse_name path with
  | Some n -> synth_topology n qps platform no_tune save
  | None ->
      let profile = Ditto_profile.Profile_io.load path in
      let clone = Ditto_gen.Clone.synth_app profile in
      Printf.printf "regenerated %s (%d tiers) from %s\n" clone.Spec.app_name
        (List.length clone.Spec.tiers) path;
      let qps = Option.value ~default:1000.0 qps in
      let load = Service.load ~qps ~duration:1.0 () in
      let out = Runner.run (Runner.config (Platform.by_name platform)) ~load clone in
      print_tiers out

let export_trace name out_path =
  let entry, _ = load_for name None 0.5 in
  let app = entry.Registry.spec () in
  let load = Service.load ~qps:1000.0 ~duration:0.4 () in
  let result = Pipeline.clone ~tune:false ~platform:Platform.a ~load app in
  let tier = List.hd result.Pipeline.synthetic.Spec.tiers in
  let n = Ditto_gen.Trace_export.save ~path:out_path ~tier ~requests:50 ~seed:1 () in
  Printf.printf "wrote %d accesses to %s\n" n out_path

(* Re-parse an exported trace, proving the telemetry is machine-readable:
   Chrome files get event counts per domain; Jaeger files are fed through
   the DAG recovery the cloning pipeline itself uses. Both end with the
   top-10 slowest spans (name, duration, tier/app attribute). *)
let print_slowest spans =
  (* spans: (name, duration_us, attr) *)
  let top =
    List.stable_sort (fun (_, a, _) (_, b, _) -> compare (b : float) a) spans
    |> List.filteri (fun i _ -> i < 10)
  in
  if top <> [] then
    Ditto_util.Table.print ~title:"slowest spans"
      ~header:[ "span"; "ms"; "tier" ]
      (List.map
         (fun (name, dur_us, attr) ->
           [ name; Printf.sprintf "%.3f" (dur_us /. 1e3); attr ])
         top)

let inspect_trace path =
  let module J = Ditto_util.Jsonx in
  (* The span attribute naming the service: microservice spans carry "tier",
     pipeline spans carry "app". *)
  let attr_str v = match v with J.Str s -> Some s | _ -> None in
  let tier_of obj =
    match attr_str (J.member "tier" obj) with
    | Some s -> s
    | None -> Option.value ~default:"-" (attr_str (J.member "app" obj))
  in
  try
    match J.load path with
    | exception Sys_error msg ->
        Printf.eprintf "inspect-trace: %s\n" msg;
        exit 1
    | exception J.Parse_error msg ->
        Printf.eprintf "inspect-trace: %s: %s\n" path msg;
        exit 1
    | json -> (
        match J.member "traceEvents" json with
        | J.List events ->
            let spans = List.filter (fun e -> J.member "ph" e = J.Str "X") events in
            let tids =
              List.sort_uniq compare (List.map (fun e -> J.to_int (J.member "tid" e)) spans)
            in
            Printf.printf "%s: Chrome trace, %d span event(s) across %d domain(s)\n" path
              (List.length spans) (List.length tids);
            List.iter
              (fun tid ->
                let n =
                  List.length (List.filter (fun e -> J.to_int (J.member "tid" e) = tid) spans)
                in
                Printf.printf "  domain %d: %d span(s)\n" tid n)
              tids;
            (* Counter ("C"-phase) series, e.g. the windowed telemetry
               tracks: summarise instead of ignoring. *)
            let counters = List.filter (fun e -> J.member "ph" e = J.Str "C") events in
            if counters <> [] then begin
              let tbl : (string, float list) Hashtbl.t = Hashtbl.create 32 in
              List.iter
                (fun e ->
                  let name = J.to_str (J.member "name" e) in
                  match J.member "args" e with
                  | J.Obj kvs ->
                      List.iter
                        (fun (k, v) ->
                          match v with
                          | J.Num x ->
                              let key = if k = "value" then name else name ^ "." ^ k in
                              let cur = Option.value ~default:[] (Hashtbl.find_opt tbl key) in
                              Hashtbl.replace tbl key (x :: cur)
                          | _ -> ())
                        kvs
                  | _ -> ())
                counters;
              let rows =
                Hashtbl.fold (fun k vs acc -> (k, vs) :: acc) tbl []
                |> List.sort (fun (a, _) (b, _) -> compare a b)
                |> List.map (fun (k, vs) ->
                       let n = float_of_int (List.length vs) in
                       let sum = List.fold_left ( +. ) 0.0 vs in
                       [
                         k;
                         Printf.sprintf "%d" (List.length vs);
                         Printf.sprintf "%.3f" (List.fold_left Float.min infinity vs);
                         Printf.sprintf "%.3f" (sum /. n);
                         Printf.sprintf "%.3f" (List.fold_left Float.max neg_infinity vs);
                       ])
              in
              Printf.printf "  %d counter event(s) in %d series\n" (List.length counters)
                (List.length rows);
              Ditto_util.Table.print ~title:"counter series"
                ~header:[ "series"; "samples"; "min"; "mean"; "max" ]
                rows
            end;
            print_slowest
              (List.map
                 (fun e ->
                   ( J.to_str (J.member "name" e),
                     J.to_float (J.member "dur" e),
                     tier_of (J.member "args" e) ))
                 spans)
        | _ -> (
            match Ditto_trace.Jaeger.of_json json with
            | exception J.Parse_error msg ->
                Printf.eprintf "inspect-trace: %s: not a Chrome or Jaeger trace: %s\n" path msg;
                exit 1
            | exception Ditto_trace.Jaeger.Ingest_error { span_id; reason } ->
                Printf.eprintf "inspect-trace: %s: bad span %s: %s\n" path span_id reason;
                exit 1
            | spans ->
                let traces =
                  List.sort_uniq compare
                    (List.map (fun (s : Ditto_trace.Span.t) -> s.Ditto_trace.Span.trace_id) spans)
                in
                Printf.printf "%s: Jaeger trace, %d span(s) in %d trace(s)\n" path
                  (List.length spans) (List.length traces);
                (match Ditto_trace.Dag.roots spans with
                | [] -> ()
                | roots ->
                    (* Report every root, not just the one the DAG recovery
                       happens to pick first: a critpath export has one
                       root per sampled request, so identical
                       (service, span-count) shapes are aggregated. *)
                    let groups : (string * int, int) Hashtbl.t = Hashtbl.create 16 in
                    List.iter
                      (fun ((s : Ditto_trace.Span.t), count) ->
                        let key = (s.Ditto_trace.Span.service, count) in
                        let c = Option.value ~default:0 (Hashtbl.find_opt groups key) in
                        Hashtbl.replace groups key (c + 1))
                      roots;
                    Printf.printf "  %d root(s):\n" (List.length roots);
                    Hashtbl.fold (fun k v acc -> (k, v) :: acc) groups []
                    |> List.sort compare
                    |> List.iter (fun ((service, count), n) ->
                           Printf.printf "    %s: %d trace(s) x %d span(s)\n" service n count);
                    let dag = Ditto_trace.Dag.of_spans spans in
                    Printf.printf "  DAG: entry=%s services=%d edges=%d\n"
                      dag.Ditto_trace.Dag.entry
                      (List.length dag.Ditto_trace.Dag.services)
                      (List.length dag.Ditto_trace.Dag.edges));
                (* Re-ingested Span.t drops duration, so read the raw spans. *)
                let tag_of s key =
                  List.find_map
                    (fun t ->
                      if J.member "key" t = J.Str key then attr_str (J.member "value" t)
                      else None)
                    (J.to_list (J.member "tags" s))
                in
                print_slowest
                  (J.member "data" json |> J.to_list
                  |> List.concat_map (fun trace -> J.to_list (J.member "spans" trace))
                  |> List.map (fun s ->
                         let tag =
                           match tag_of s "tier" with
                           | Some t -> t
                           | None -> Option.value ~default:"-" (tag_of s "app")
                         in
                         ( J.to_str (J.member "operationName" s),
                           J.to_float (J.member "duration" s),
                           tag )))))
  with J.Parse_error msg ->
    Printf.eprintf "inspect-trace: %s: malformed trace: %s\n" path msg;
    exit 1

(* Stack profile (fidelity observatory): clone an app, run the clone (or
   the original with --original) with the runner's [stacks] switch on, and
   write the tiers' stack tables as one collapsed-stack file for
   flamegraph.pl/inferno, plus a top-N table. The weights are the measured
   cycle deltas, so they must reconcile with the measured on-CPU time — a
   >1% gap is a bug and exits non-zero. *)
let profile_app name qps original out top =
  let module Flame = Ditto_report.Flame in
  let entry, load = load_for name qps 0.8 in
  let spec =
    if original then entry.Registry.spec ()
    else begin
      let t0 = Unix.gettimeofday () in
      let result =
        Pipeline.clone ~tune:false ~platform:Platform.a ~load (entry.Registry.spec ())
      in
      Printf.printf "cloned %s (untuned) in %.1fs\n" name (Unix.gettimeofday () -. t0);
      result.Pipeline.synthetic
    end
  in
  let out_run = Runner.run (Runner.config ~stacks:true Platform.a) ~load spec in
  (* Ground truth: the stacks cover exactly the measurement-phase requests
     plus the background threads, whose on-CPU time the traces record. *)
  let tiers = List.map snd out_run.Runner.measured in
  let measured =
    List.fold_left
      (fun acc (r : Measure.tier_result) ->
        Array.fold_left (fun a tr -> a +. Measure.trace_cpu_seconds tr) acc r.Measure.traces
        +. Option.fold ~none:0.0 ~some:Measure.trace_cpu_seconds r.Measure.background_trace)
      0.0 tiers
  in
  let stacks = List.concat_map (fun (r : Measure.tier_result) -> r.Measure.stacks) tiers in
  let attributed = List.fold_left (fun acc (_, s) -> acc +. s) 0.0 stacks in
  let path = Option.value ~default:(name ^ ".folded") out in
  let lines = Flame.write_collapsed ~path stacks in
  Printf.printf "%s: wrote %s (%d stack(s); flamegraph.pl %s > %s.svg)\n"
    (if original then name else name ^ " (clone)")
    path lines path name;
  Flame.print_top ~n:top stacks;
  let err = if measured > 0.0 then Float.abs (attributed -. measured) /. measured else 1.0 in
  Printf.printf "on-CPU: measured %.3f ms, attributed %.3f ms (err %.3f%%)\n" (1e3 *. measured)
    (1e3 *. attributed) (100.0 *. err);
  if err > 0.01 then begin
    Printf.eprintf "profile: attributed time diverges from measured on-CPU time by >1%%\n";
    exit 1
  end

let list_apps () =
  (* Committed-gate summary per app: which baseline key families (steady
     scorecard, each validation gate) and wall budgets the regression gate
     in bench/baselines/default.json already pins for it. *)
  let module Baseline = Ditto_report.Baseline in
  let baseline =
    let path = "bench/baselines/default.json" in
    if Sys.file_exists path then
      match Baseline.load path with b -> Some b | exception _ -> None
    else None
  in
  let gates name =
    match baseline with
    | None -> "(no baseline)"
    | Some b ->
        let keys = List.map fst b.Baseline.metrics in
        let has prefix = List.exists (fun k -> String.starts_with ~prefix k) keys in
        let fams =
          List.filter_map
            (fun (label, prefix) -> if has prefix then Some label else None)
            (("scorecard", Printf.sprintf "scorecards/%s/" name)
            :: List.map
                 (fun g ->
                   let gate = Ditto_report.Gate.name g in
                   (gate, Printf.sprintf "%s/%s/" gate name))
                 Ditto_report.Gate.all
            @ [
                (* synth graph wall budgets: experiments/synth100/... for
                   app "synth-100" *)
                ( "wall",
                  Printf.sprintf "experiments/%s/wall_seconds"
                    (String.concat "" (String.split_on_char '-' name)) );
              ])
        in
        if fams = [] then "-" else String.concat "+" fams
  in
  List.iter
    (fun (e : Registry.entry) ->
      let low, med, high = e.Registry.loads in
      let tiers = List.length (e.Registry.spec ()).Spec.tiers in
      Printf.printf
        "%-18s %4d tier%s  %-10s loads: %.0f / %.0f / %.0f qps; gates: %-24s focus: %s\n"
        e.Registry.name tiers
        (if tiers = 1 then " " else "s")
        e.Registry.workload.Ditto_loadgen.Workload.gen_name low med high (gates e.Registry.name)
        (String.concat ", " e.Registry.focus_tiers))
    (Registry.all @ Registry.extras)

open Cmdliner

let app_arg =
  Arg.(required & pos 0 (some string) None & info [] ~docv:"APP" ~doc:"Application name")

let qps_arg = Arg.(value & opt (some float) None & info [ "qps" ] ~doc:"Offered load (QPS)")

let platform_arg =
  Arg.(value & opt string "A" & info [ "platform" ] ~doc:"Platform (A, B or C)")

let no_tune_arg = Arg.(value & flag & info [ "no-tune" ] ~doc:"Skip fine tuning")

let save_arg =
  Arg.(value & opt (some string) None & info [ "save" ] ~doc:"Write the profile to FILE")

let path_arg =
  Arg.(required & pos 0 (some string) None & info [] ~docv:"FILE" ~doc:"Profile file")

let out_arg =
  Arg.(required & pos 1 (some string) None & info [] ~docv:"OUT" ~doc:"Output trace file")

let trace_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "trace" ] ~docv:"FILE"
        ~doc:"Record the pipeline's own spans and write a Chrome trace-event file")

let trace_jaeger_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "trace-jaeger" ] ~docv:"FILE"
        ~doc:"Write the recorded spans as Jaeger JSON (default: \\$(b,FILE).jaeger.json)")

let trace_file_arg =
  Arg.(
    required & pos 0 (some string) None & info [] ~docv:"FILE" ~doc:"Chrome or Jaeger trace file")

let run_cmd =
  Cmd.v
    (Cmd.info "run" ~doc:"Run an original model service and print metrics")
    Term.(const run_app $ app_arg $ qps_arg $ platform_arg $ trace_arg $ trace_jaeger_arg)

let clone_cmd =
  Cmd.v
    (Cmd.info "clone" ~doc:"Clone a service and validate the clone")
    Term.(
      const clone_app $ app_arg $ qps_arg $ no_tune_arg $ save_arg $ trace_arg $ trace_jaeger_arg)

let synth_cmd =
  Cmd.v
    (Cmd.info "synth"
       ~doc:
         "Regenerate and run a clone from a shared profile file, or — given a synth-<n> name — \
          generate an n-tier production-shaped graph, round-trip its traces through Jaeger, and \
          clone + validate it")
    Term.(const synth_profile $ path_arg $ qps_arg $ platform_arg $ no_tune_arg $ save_arg)

let export_cmd =
  Cmd.v
    (Cmd.info "export-trace" ~doc:"Export a clone's memory trace (Ramulator format)")
    Term.(const export_trace $ app_arg $ out_arg)

let stages_cmd =
  Cmd.v
    (Cmd.info "stages" ~doc:"Fig. 9-style accuracy decomposition")
    Term.(const stages_app $ app_arg $ qps_arg $ trace_arg $ trace_jaeger_arg)

let inspect_cmd =
  Cmd.v
    (Cmd.info "inspect-trace" ~doc:"Parse an exported trace back and summarise it")
    Term.(const inspect_trace $ trace_file_arg)

let plan_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "plan" ] ~docv:"NAME|FILE"
        ~doc:
          "Fault plan for every gate: a canonical name (kill-mid-tier, brownout-leaf, flaky-link) \
           or a plan JSON file (default: each gate's own scenario)")

let profile_file_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "profile" ] ~docv:"NAME|FILE"
        ~doc:
          "Rate profile for every gate: a canonical name (flash-crowd, diurnal, \
           ramp-to-saturation) or a Rate JSON file (default: each gate's own scenario)")

let gates_arg =
  let all = List.map Ditto_report.Gate.name Ditto_report.Gate.all in
  Arg.(
    value
    & opt (list string) all
    & info [ "gates" ] ~docv:"GATES"
        ~doc:
          (Printf.sprintf "Comma-separated gates to run, of %s (default: all)"
             (String.concat ", " all)))

let openmetrics_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "openmetrics" ] ~docv:"FILE"
        ~doc:
          "Write every recorded timeline (per gate, actual + clone) as an OpenMetrics text \
           exposition")

let jaeger_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "jaeger" ] ~docv:"FILE"
        ~doc:
          "Export the critpath gate's sampled request span trees (actual side) as Jaeger JSON \
           (re-ingestable by $(b,inspect-trace))")

let validate_cmd =
  Cmd.v
    (Cmd.info "validate"
       ~doc:
         "Clone an app once and run validation gates on the clone: chaos (fault plans), timeline \
          (windowed transient fidelity), critpath (critical-path divergence), surge (overload with \
          autoscaling)")
    Term.(
      const validate_app $ app_arg $ qps_arg $ no_tune_arg $ gates_arg $ plan_arg
      $ profile_file_arg $ openmetrics_arg $ jaeger_arg $ trace_arg $ trace_jaeger_arg)

let original_arg =
  Arg.(value & flag & info [ "original" ] ~doc:"Profile the original instead of its clone")

let prof_out_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "out" ] ~docv:"FILE" ~doc:"Collapsed-stack output file (default APP.folded)")

let top_arg =
  Arg.(value & opt int 10 & info [ "top" ] ~doc:"Rows in the top-stacks table")

let profile_cmd =
  Cmd.v
    (Cmd.info "profile"
       ~doc:"Per-tier CPU stacks of a clone's execution, as a collapsed-stack flamegraph file")
    Term.(const profile_app $ app_arg $ qps_arg $ original_arg $ prof_out_arg $ top_arg)

let list_cmd =
  Cmd.v (Cmd.info "list" ~doc:"List model applications") Term.(const list_apps $ const ())

let () =
  let info = Cmd.info "ditto-cli" ~doc:"Ditto (ASPLOS'23) reproduction CLI" in
  exit
    (Cmd.eval
       (Cmd.group info
          [
            run_cmd; clone_cmd; synth_cmd; export_cmd; stages_cmd; validate_cmd; inspect_cmd;
            profile_cmd; list_cmd;
          ]))
