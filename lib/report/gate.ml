module Pipeline = Ditto_core.Pipeline
module Plan = Ditto_fault.Plan
module Rq = Ditto_obs.Reqtrace
open Ditto_app

type t = Chaos | Timeline | Critpath | Surge

let all = [ Chaos; Timeline; Critpath; Surge ]

let name = function
  | Chaos -> "chaos"
  | Timeline -> "timeline"
  | Critpath -> "critpath"
  | Surge -> "surge"

let of_name s = List.find_opt (fun g -> name g = s) all
let platform = Ditto_uarch.Platform.a

(* The surge gate's per-replica shed threshold: tight enough that the 4x
   flash crowd sheds on every registry app, so the onset and shed-rate
   keys measure something. *)
let surge_queue_bound = 48

type run = {
  scenario : string;
  actual : Service.result;
  synthetic : Service.result;
  flat : (string * float) list;
  print : unit -> unit;
}

type result = { runs : run list; smoke : string }

let with_timeline p = Runner.config ~timeline:true p
let ms seconds = int_of_float (Float.round (seconds *. 1e3))

let run_of ~scenario (c : Pipeline.comparison) ~flat ~print =
  {
    scenario;
    actual = c.Pipeline.actual_service;
    synthetic = c.Pipeline.synthetic_service;
    flat;
    print;
  }

(* Resilience counters of every run, both sides, so CI can assert that the
   chaos machinery fired. *)
let chaos_totals runs =
  let services = List.concat_map (fun r -> [ r.actual; r.synthetic ]) runs in
  let sum f = List.fold_left (fun acc r -> acc + f r) 0 services in
  let per_tier f =
    sum (fun (r : Service.result) -> List.fold_left (fun acc o -> acc + f o) 0 r.Service.tiers)
  in
  Printf.sprintf "chaos-totals: shed=%d retries=%d timeouts=%d errors=%d drops=%d"
    (per_tier (fun o -> o.Service.obs_shed))
    (sum (fun r -> r.Service.client_retries) + per_tier (fun o -> o.Service.obs_retries))
    (sum (fun r -> r.Service.client_timeouts) + per_tier (fun o -> o.Service.obs_timeouts))
    (sum (fun r -> r.Service.errors))
    (per_tier (fun o -> o.Service.obs_link_drops))

let chaos ?pool ~app ~load ~tiers ?plan ?profile (clone : Pipeline.clone_result) =
  let plans =
    match plan with
    | Some p -> [ p ]
    | None -> Plan.canonical ~duration:load.Service.duration ~tiers
  in
  let runs =
    List.map
      (fun plan ->
        let scenario = Pipeline.scenario_name ~plan ?surge:profile () in
        let ch =
          Pipeline.validate_under ?pool ~platform ~load ~plan ?profile
            ~label:("chaos:" ^ scenario) clone
        in
        let card = Scorecard.of_chaos ~app ?tuning:clone.Pipeline.tuning ch in
        let delta metric =
          Option.bind card.Scorecard.failure (fun f ->
              List.find_map
                (fun (r : Scorecard.failure_row) ->
                  if r.Scorecard.f_metric = metric then Some r.Scorecard.f_delta else None)
                f.Scorecard.failure_rows)
          |> Option.value ~default:0.0
        in
        let key metric = String.concat "/" [ app; scenario; metric ] in
        run_of ~scenario ch.Pipeline.comparison
          ~flat:
            [
              (key "throughput_err_pct", delta "throughput");
              (key "p99_err_pct", delta "lat_p99");
              (key "error_rate_pp", delta "error_rate");
            ]
          ~print:(fun () -> Scorecard.print card))
      plans
  in
  { runs; smoke = chaos_totals runs }

let timeline ?pool ~app ~load ~tiers ?plan ?profile clone =
  let plan =
    match plan with
    | Some p -> p
    | None -> Plan.kill_mid_tier ~duration:load.Service.duration ~tiers ()
  in
  let scenario = Pipeline.scenario_name ~plan ?surge:profile () in
  let ch =
    Pipeline.validate_under ?pool ~config_of:with_timeline ~platform ~load ~plan ?profile
      ~label:("timeline:" ^ scenario) clone
  in
  let tl =
    match
      (ch.Pipeline.actual_service.Service.timeline, ch.Pipeline.synthetic_service.Service.timeline)
    with
    | Some a, Some c -> Timeline.of_timelines ~app ~plan:scenario ~actual:a ~clone:c ()
    | _ -> invalid_arg "Gate.timeline: a side ran without its timeline collector"
  in
  {
    runs =
      [
        run_of ~scenario ch.Pipeline.comparison ~flat:(Timeline.flat tl)
          ~print:(fun () -> Timeline.print tl);
      ];
    smoke =
      Printf.sprintf
        "TIMELINE-SMOKE-OK windows=%d worst=%.1f%% mean=%.1f%% reconverge_ms=%d reconverged=%b"
        (List.length tl.Timeline.rows) tl.Timeline.worst_window_err_pct
        tl.Timeline.mean_window_err_pct
        (ms tl.Timeline.reconverge_seconds)
        tl.Timeline.reconverged;
  }

let critpath ?pool ~app ~load ?plan ?profile clone =
  let config_of p = Runner.config ~reqtrace:true p in
  let scenario = Pipeline.scenario_name ?plan ?surge:profile () in
  let label = "critpath:" ^ scenario in
  let c =
    match (plan, profile) with
    | None, None -> Pipeline.validate ?pool ~config_of ~platform ~load ~label clone
    | _ ->
        (Pipeline.validate_under ?pool ~config_of ~platform ~load ?plan ?profile ~label clone)
          .Pipeline.comparison
  in
  let d = Critpath.of_comparison ~app ~plan:scenario c in
  let sampled (r : Service.result) = Option.fold ~none:0 ~some:Rq.sampled r.Service.reqtrace in
  let worst, err =
    match Critpath.worst d with
    | Some r -> (r.Critpath.d_tier ^ "/" ^ r.Critpath.d_segment, r.Critpath.d_err_pp)
    | None -> ("none", 0.0)
  in
  {
    runs = [ run_of ~scenario c ~flat:(Critpath.flat d) ~print:(fun () -> Critpath.print d) ];
    smoke =
      Printf.sprintf "CRITPATH-SMOKE-OK actual_traces=%d clone_traces=%d worst=%s err_pp=%+.2f"
        (sampled c.Pipeline.actual_service)
        (sampled c.Pipeline.synthetic_service)
        worst err;
  }

let surge ?pool ~app ~load ~tiers ?plan ?profile clone =
  let duration = load.Service.duration in
  let plan = match plan with Some p -> p | None -> Plan.kill_mid_tier ~duration ~tiers () in
  let profile =
    match profile with Some r -> r | None -> Ditto_loadgen.Profile.flash_crowd ~duration ()
  in
  let ch =
    Pipeline.validate_under ?pool ~config_of:with_timeline ~platform ~load
      ~resilience:(Spec.resilient ~queue_bound:surge_queue_bound ())
      ~autoscale:(Spec.autoscale ()) ~plan ~profile
      ~label:("surge:" ^ Pipeline.scenario_name ~plan ~surge:profile ())
      clone
  in
  let sc = Surge.of_chaos ~app ch in
  let tl = sc.Surge.timeline in
  {
    runs =
      [
        run_of ~scenario:sc.Surge.scenario ch.Pipeline.comparison ~flat:(Surge.flat sc)
          ~print:(fun () -> Surge.print sc);
      ];
    smoke =
      Printf.sprintf
        "SURGE-SMOKE-OK windows=%d worst=%.1f%% shed_err_pp=%.2f scale_out_events=%d shed_total=%d \
         reconverge_ms=%d"
        (List.length tl.Timeline.rows) tl.Timeline.worst_window_err_pct
        sc.Surge.shed_fraction_err_pp
        (sc.Surge.scale_out_actual + sc.Surge.scale_out_clone)
        (sc.Surge.shed_total_actual + sc.Surge.shed_total_clone)
        (ms tl.Timeline.reconverge_seconds);
  }

let run ?pool ?plan ?profile g ~app ~load (clone : Pipeline.clone_result) =
  let tiers =
    List.map (fun (t : Spec.tier) -> t.Spec.tier_name) clone.Pipeline.original.Spec.tiers
  in
  match g with
  | Chaos -> chaos ?pool ~app ~load ~tiers ?plan ?profile clone
  | Timeline -> timeline ?pool ~app ~load ~tiers ?plan ?profile clone
  | Critpath -> critpath ?pool ~app ~load ?plan ?profile clone
  | Surge -> surge ?pool ~app ~load ~tiers ?plan ?profile clone

let flat r = List.concat_map (fun run -> run.flat) r.runs

let print r =
  List.iter (fun run -> run.print ()) r.runs;
  print_endline r.smoke
