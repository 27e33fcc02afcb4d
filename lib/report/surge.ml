module Ts = Ditto_obs.Timeseries
module Pipeline = Ditto_core.Pipeline
module Table = Ditto_util.Table
open Ditto_app

type t = {
  app : string;
  scenario : string;
  timeline : Timeline.t;
  shed_fraction_actual : float;
  shed_fraction_clone : float;
  shed_fraction_err_pp : float;
  worst_shed_window_err_pp : float;
  replica_traj_err_pp : float;
  saturation_onset_actual : float option;
  saturation_onset_clone : float option;
  saturation_onset_err_s : float;
  scale_out_actual : int;
  scale_out_clone : int;
  scale_in_actual : int;
  scale_in_clone : int;
  shed_total_actual : int;
  shed_total_clone : int;
}

(* Per-window shed fraction: shed requests (summed over application tiers)
   over offered arrivals (end-to-end completions + shed). Both sides of
   the comparison use the same definition, so the error is in percentage
   points of offered load. *)
let shed_by_window ts =
  let n = Ts.windows ts in
  let app_tiers = List.filter (fun t -> t <> Ts.client_tier) (Ts.tiers ts) in
  Array.init n (fun i ->
      let shed =
        List.fold_left (fun acc tier -> acc + (Ts.row ts ~tier i).Ts.r_shed) 0 app_tiers
      in
      let completed = (Ts.row ts ~tier:Ts.client_tier i).Ts.r_completed in
      (shed, completed))

let frac (shed, completed) =
  let total = shed + completed in
  if total = 0 then 0.0 else float_of_int shed /. float_of_int total

let onset w cells =
  let n = Array.length cells in
  let rec go i = if i >= n then None else if fst cells.(i) > 0 then Some (float_of_int i *. w) else go (i + 1) in
  go 0

let count_scale dir events =
  List.length
    (List.filter
       (fun (e : Service.scale_event) ->
         if dir > 0 then e.Service.se_to > e.Service.se_from
         else e.Service.se_to < e.Service.se_from)
       events)

let of_chaos ~app (ch : Pipeline.chaos) =
  let actual, clone =
    match
      (ch.Pipeline.actual_service.Service.timeline, ch.Pipeline.synthetic_service.Service.timeline)
    with
    | Some a, Some c -> (a, c)
    | _ ->
        invalid_arg
          "Surge.of_chaos: needs windowed telemetry on both sides (validate with a runner \
           config that sets timeline)"
  in
  let scenario = Pipeline.scenario_name ?plan:ch.Pipeline.plan ?surge:ch.Pipeline.surge () in
  let timeline = Timeline.of_timelines ~app ~plan:scenario ~actual ~clone () in
  let n = Ts.windows actual in
  let w = Ts.window_seconds actual in
  let a_cells = shed_by_window actual and c_cells = shed_by_window clone in
  let total cells =
    Array.fold_left (fun (s, c) (shed, completed) -> (s + shed, c + completed)) (0, 0) cells
  in
  let a_shed, a_comp = total a_cells and c_shed, c_comp = total c_cells in
  let shed_fraction_actual = frac (a_shed, a_comp) in
  let shed_fraction_clone = frac (c_shed, c_comp) in
  let worst_shed_window_err_pp =
    let worst = ref 0.0 in
    for i = 0 to n - 1 do
      worst := Float.max !worst (100.0 *. Float.abs (frac a_cells.(i) -. frac c_cells.(i)))
    done;
    !worst
  in
  (* Replica trajectory: the windowed replica gauge (carried forward) on
     both sides, compared cell by cell over (application tier x window) —
     the error is the share of cells where the live replica counts
     disagree, i.e. how often "kubectl get pods" would differ. *)
  let replica_traj_err_pp =
    let app_tiers = List.filter (fun t -> t <> Ts.client_tier) (Ts.tiers actual) in
    let cells = ref 0 and off = ref 0 in
    List.iter
      (fun tier ->
        if List.mem tier (Ts.tiers clone) then
          for i = 0 to n - 1 do
            incr cells;
            if (Ts.row actual ~tier i).Ts.r_replicas <> (Ts.row clone ~tier i).Ts.r_replicas then
              incr off
          done)
      app_tiers;
    if !cells = 0 then 0.0 else 100.0 *. float_of_int !off /. float_of_int !cells
  in
  let saturation_onset_actual = onset w a_cells in
  let saturation_onset_clone = onset w c_cells in
  let saturation_onset_err_s =
    let horizon = float_of_int n *. w in
    match (saturation_onset_actual, saturation_onset_clone) with
    | None, None -> 0.0
    | a, c ->
        Float.abs (Option.value ~default:horizon a -. Option.value ~default:horizon c)
  in
  {
    app;
    scenario;
    timeline;
    shed_fraction_actual;
    shed_fraction_clone;
    shed_fraction_err_pp = 100.0 *. Float.abs (shed_fraction_actual -. shed_fraction_clone);
    worst_shed_window_err_pp;
    replica_traj_err_pp;
    saturation_onset_actual;
    saturation_onset_clone;
    saturation_onset_err_s;
    scale_out_actual = count_scale 1 ch.Pipeline.actual_service.Service.scale_events;
    scale_out_clone = count_scale 1 ch.Pipeline.synthetic_service.Service.scale_events;
    scale_in_actual = count_scale (-1) ch.Pipeline.actual_service.Service.scale_events;
    scale_in_clone = count_scale (-1) ch.Pipeline.synthetic_service.Service.scale_events;
    shed_total_actual = a_shed;
    shed_total_clone = c_shed;
  }

let print t =
  Timeline.print t.timeline;
  let onset_str = function None -> "never" | Some s -> Printf.sprintf "%.0f ms" (s *. 1e3) in
  Table.print
    ~title:(Printf.sprintf "surge fidelity: %s under %s" t.app t.scenario)
    ~header:[ "metric"; "actual"; "clone"; "err" ]
    [
      [
        "shed fraction";
        Printf.sprintf "%.2f%%" (100.0 *. t.shed_fraction_actual);
        Printf.sprintf "%.2f%%" (100.0 *. t.shed_fraction_clone);
        Printf.sprintf "%.2f pp" t.shed_fraction_err_pp;
      ];
      [
        "shed requests";
        string_of_int t.shed_total_actual;
        string_of_int t.shed_total_clone;
        Printf.sprintf "%.2f pp worst window" t.worst_shed_window_err_pp;
      ];
      [
        "scale-out / scale-in";
        Printf.sprintf "%d / %d" t.scale_out_actual t.scale_in_actual;
        Printf.sprintf "%d / %d" t.scale_out_clone t.scale_in_clone;
        Printf.sprintf "%.1f%% windows differ" t.replica_traj_err_pp;
      ];
      [
        "saturation onset";
        onset_str t.saturation_onset_actual;
        onset_str t.saturation_onset_clone;
        Printf.sprintf "%.0f ms" (t.saturation_onset_err_s *. 1e3);
      ];
    ]

let flat t =
  let key m = Printf.sprintf "%s/%s/%s" t.app t.scenario m in
  [
    (key "worst_window_err_pct", t.timeline.Timeline.worst_window_err_pct);
    (key "mean_window_err_pct", t.timeline.Timeline.mean_window_err_pct);
    (key "reconverge_seconds", t.timeline.Timeline.reconverge_seconds);
    (key "shed_fraction_err_pp", t.shed_fraction_err_pp);
    (key "worst_shed_window_err_pp", t.worst_shed_window_err_pp);
    (key "replica_traj_err_pp", t.replica_traj_err_pp);
    (key "saturation_onset_err_s", t.saturation_onset_err_s);
  ]
