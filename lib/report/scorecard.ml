open Ditto_app
module Pipeline = Ditto_core.Pipeline
module Counters = Ditto_uarch.Counters
module Params = Ditto_gen.Params
module Table = Ditto_util.Table
module J = Ditto_util.Jsonx

type row = {
  tier : string;
  metric : string;
  actual : float;
  synthetic : float;
  err_pct : float;
  pass : bool;
  knob_group : string option;
}

type failure_row = {
  f_metric : string;
  f_actual : float;
  f_synthetic : float;
  f_delta : float;
  f_pass : bool;
}

type failure_section = { fail_plan : string; failure_rows : failure_row list }

type t = {
  app : string;
  label : string;
  target_pct : float;
  rows : row list;
  attribution : (string * float) list;
  failure : failure_section option;
}

let err_pct ~actual ~synthetic =
  if actual = 0.0 then if synthetic = 0.0 then 0.0 else 100.0
  else 100.0 *. Float.abs (synthetic -. actual) /. Float.abs actual

let insts_per_req (r : Measure.tier_result) =
  float_of_int r.Measure.counters.Counters.insts
  /. float_of_int (max 1 r.Measure.requests_measured)

(* The paper's 95% accuracy bar. *)
let target_pct = 5.0

let of_comparison ~app ?tuning (c : Pipeline.comparison) =
  let mk tier metric actual synthetic =
    let e = err_pct ~actual ~synthetic in
    {
      tier;
      metric;
      actual;
      synthetic;
      err_pct = e;
      pass = e <= target_pct;
      knob_group = Option.map Params.group_name (Params.group_of_metric metric);
    }
  in
  (* Index the per-tier lists once; the assoc scans inside the per-tier
     loop are O(tiers^2) on wide synthetic graphs. *)
  let index pairs =
    let tbl = Hashtbl.create 64 in
    List.iter (fun (name, v) -> Hashtbl.replace tbl name v) pairs;
    tbl
  in
  let synth_tbl = index c.Pipeline.synthetic in
  let am_tbl = index c.Pipeline.actual_measured in
  let sm_tbl = index c.Pipeline.synthetic_measured in
  let rows =
    List.concat_map
      (fun (tier, (a : Metrics.t)) ->
        let s = Hashtbl.find synth_tbl tier in
        let measured_rows =
          match (Hashtbl.find_opt am_tbl tier, Hashtbl.find_opt sm_tbl tier) with
          | Some am, Some sm -> [ mk tier "insts" (insts_per_req am) (insts_per_req sm) ]
          | _ -> []
        in
        [ mk tier "ipc" a.Metrics.ipc s.Metrics.ipc ]
        @ measured_rows
        @ [
            mk tier "branch"
              (Counters.branch_mpki a.Metrics.counters)
              (Counters.branch_mpki s.Metrics.counters);
            mk tier "l1i" a.Metrics.l1i_miss_rate s.Metrics.l1i_miss_rate;
            mk tier "l1d" a.Metrics.l1d_miss_rate s.Metrics.l1d_miss_rate;
            mk tier "l2" a.Metrics.l2_miss_rate s.Metrics.l2_miss_rate;
            mk tier "llc" a.Metrics.llc_miss_rate s.Metrics.llc_miss_rate;
            mk tier "throughput" a.Metrics.qps s.Metrics.qps;
            mk tier "lat_avg" a.Metrics.lat_avg s.Metrics.lat_avg;
            mk tier "lat_p95" a.Metrics.lat_p95 s.Metrics.lat_p95;
            mk tier "lat_p99" a.Metrics.lat_p99 s.Metrics.lat_p99;
          ])
      c.Pipeline.actual
  in
  let attribution =
    match tuning with
    | None -> []
    | Some (r : Ditto_tune.Tuner.report) ->
        List.map (fun (k, e) -> (k, 100.0 *. e)) r.Ditto_tune.Tuner.attribution
  in
  { app; label = c.Pipeline.label; target_pct; rows; attribution; failure = None }

(* Failure-fidelity rows. Rates compare in percentage points, latency and
   throughput in relative percent; raw resilience counters (timeouts, shed,
   ...) are noisy per-event tallies, so they pass within 50% of the larger
   side or an absolute slack of 10 events. *)
let of_chaos ~app ?tuning (ch : Pipeline.chaos) =
  let base = of_comparison ~app ?tuning ch.Pipeline.comparison in
  let a_svc = ch.Pipeline.actual_service and s_svc = ch.Pipeline.synthetic_service in
  let rate_row metric a s =
    let delta = 100.0 *. Float.abs (s -. a) in
    { f_metric = metric; f_actual = a; f_synthetic = s; f_delta = delta; f_pass = delta <= target_pct }
  in
  let rel_row metric a s =
    let delta = err_pct ~actual:a ~synthetic:s in
    { f_metric = metric; f_actual = a; f_synthetic = s; f_delta = delta; f_pass = delta <= target_pct }
  in
  let count_row metric a s =
    let a = float_of_int a and s = float_of_int s in
    let delta = Float.abs (s -. a) in
    let slack = Float.max 10.0 (0.5 *. Float.max a s) in
    { f_metric = metric; f_actual = a; f_synthetic = s; f_delta = delta; f_pass = delta <= slack }
  in
  let app_rows =
    [
      rate_row "error_rate" (Pipeline.error_rate a_svc) (Pipeline.error_rate s_svc);
      rel_row "lat_p99" a_svc.Service.latency.Ditto_util.Stats.p99
        s_svc.Service.latency.Ditto_util.Stats.p99;
      rel_row "throughput" a_svc.Service.achieved_qps s_svc.Service.achieved_qps;
      count_row "client_timeouts" a_svc.Service.client_timeouts s_svc.Service.client_timeouts;
      count_row "client_retries" a_svc.Service.client_retries s_svc.Service.client_retries;
    ]
  in
  let s_obs_tbl = Hashtbl.create 64 in
  List.iter
    (fun (o : Service.tier_obs) -> Hashtbl.replace s_obs_tbl o.Service.obs_name o)
    s_svc.Service.tiers;
  let tier_rows =
    List.concat_map
      (fun (a_obs : Service.tier_obs) ->
        match Hashtbl.find_opt s_obs_tbl a_obs.Service.obs_name with
        | None -> []
        | Some s_obs ->
            let tier = a_obs.Service.obs_name in
            List.filter_map
              (fun (metric, a, s) ->
                if a = 0 && s = 0 then None
                else Some (count_row (tier ^ "/" ^ metric) a s))
              [
                ("timeouts", a_obs.Service.obs_timeouts, s_obs.Service.obs_timeouts);
                ("retries", a_obs.Service.obs_retries, s_obs.Service.obs_retries);
                ("shed", a_obs.Service.obs_shed, s_obs.Service.obs_shed);
                ("degraded", a_obs.Service.obs_degraded, s_obs.Service.obs_degraded);
                ("failures", a_obs.Service.obs_failures, s_obs.Service.obs_failures);
                ( "breaker_transitions",
                  a_obs.Service.obs_breaker_transitions,
                  s_obs.Service.obs_breaker_transitions );
                ("link_drops", a_obs.Service.obs_link_drops, s_obs.Service.obs_link_drops);
              ])
      a_svc.Service.tiers
  in
  {
    base with
    label = ch.Pipeline.chaos_label;
    failure =
      Some
        {
          fail_plan = Pipeline.scenario_name ?plan:ch.Pipeline.plan ?surge:ch.Pipeline.surge ();
          failure_rows = app_rows @ tier_rows;
        };
  }

let passed t =
  List.for_all (fun r -> match r.knob_group with Some _ -> r.pass | None -> true) t.rows

let row_to_json r =
  J.Obj
    [
      ("tier", J.Str r.tier);
      ("metric", J.Str r.metric);
      ("actual", J.Num r.actual);
      ("synthetic", J.Num r.synthetic);
      ("err_pct", J.Num r.err_pct);
      ("pass", J.Bool r.pass);
      ("knob_group", match r.knob_group with Some g -> J.Str g | None -> J.Null);
    ]

let failure_row_to_json r =
  J.Obj
    [
      ("metric", J.Str r.f_metric);
      ("actual", J.Num r.f_actual);
      ("synthetic", J.Num r.f_synthetic);
      ("delta", J.Num r.f_delta);
      ("pass", J.Bool r.f_pass);
    ]

let to_json t =
  J.Obj
    ([
       ("app", J.Str t.app);
       ("label", J.Str t.label);
       ("target_pct", J.Num t.target_pct);
       ("passed", J.Bool (passed t));
       ("rows", J.List (List.map row_to_json t.rows));
       ("attribution", J.Obj (List.map (fun (k, e) -> (k, J.Num e)) t.attribution));
     ]
    @
    match t.failure with
    | None -> []
    | Some f ->
        [
          ( "failure",
            J.Obj
              [
                ("plan", J.Str f.fail_plan);
                ("rows", J.List (List.map failure_row_to_json f.failure_rows));
              ] );
        ])

let print t =
  let cells r =
    [
      r.tier;
      r.metric;
      Table.fmt_float r.actual;
      Table.fmt_float r.synthetic;
      Table.fmt_pct r.err_pct;
      (if r.pass then "ok" else "FAIL");
      (match r.knob_group with Some g -> g | None -> "-");
    ]
  in
  Table.print
    ~title:
      (Printf.sprintf "Scorecard — %s (%s, target %.0f%%: %s)" t.app t.label t.target_pct
         (if passed t then "PASS" else "FAIL"))
    ~header:[ "tier"; "metric"; "actual"; "synthetic"; "err"; "95%"; "knobs" ]
    (List.map cells t.rows);
  if t.attribution <> [] then begin
    Printf.printf "  residual tuning error by knob group:";
    List.iter (fun (k, e) -> Printf.printf " %s=%.1f%%" k e) t.attribution;
    print_newline ()
  end;
  match t.failure with
  | None -> ()
  | Some f ->
      Table.print
        ~title:(Printf.sprintf "Failure fidelity — %s under %s" t.app f.fail_plan)
        ~header:[ "metric"; "actual"; "synthetic"; "delta"; "ok" ]
        (List.map
           (fun r ->
             [
               r.f_metric;
               Table.fmt_float r.f_actual;
               Table.fmt_float r.f_synthetic;
               Table.fmt_float r.f_delta;
               (if r.f_pass then "ok" else "FAIL");
             ])
           f.failure_rows)
