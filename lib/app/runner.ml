open Ditto_uarch

type config = {
  platform : Platform.t;
  cluster : bool;
  requests : int;
  seed : int;
  syscall_scale : float;
  stressor : (Ditto_util.Rng.t -> int -> Spec.op list) option;
  stressor_placement : [ `Same_core | `Other_core ];
  smt_pressure : float;
  net_interference_gbps : float;
  cores : int option;
  page_cache_bytes : int option;
  fault_plan : Ditto_fault.Plan.t option;
  timeline : bool;
  reqtrace : bool;
}

let config ?(cluster = false) ?(requests = 220) ?(seed = 42) ?(syscall_scale = 0.25) ?stressor
    ?(stressor_placement = `Same_core) ?(smt_pressure = 1.0) ?(net_interference_gbps = 0.0)
    ?cores ?page_cache_bytes ?fault_plan ?(timeline = false) ?(reqtrace = false) platform =
  {
    platform;
    cluster;
    requests;
    seed;
    syscall_scale;
    stressor;
    stressor_placement;
    smt_pressure;
    net_interference_gbps;
    cores;
    page_cache_bytes;
    fault_plan;
    timeline;
    reqtrace;
  }

let fault_timeouts_c = Ditto_obs.Obs.Metrics.counter "fault.timeouts"
let fault_retries_c = Ditto_obs.Obs.Metrics.counter "fault.retries"
let fault_shed_c = Ditto_obs.Obs.Metrics.counter "fault.shed"
let fault_drops_c = Ditto_obs.Obs.Metrics.counter "fault.link_drops"

type output = {
  app : Spec.t;
  per_tier : (string * Metrics.t) list;
  end_to_end : Ditto_util.Stats.summary;
  service : Service.result;
  measured : (string * Measure.tier_result) list;
}

(* Mean per-worker idle gap between requests: drives how much timer/idle
   kernel housekeeping pollutes the frontend. Clamped: past ~5ms more idle
   does not add per-request pollution. *)
let estimate_idle_per_request ~qps ~workers =
  if qps <= 0.0 then 5e-3
  else Float.min 5e-3 (float_of_int (max 1 workers) /. qps *. 0.8)

let measure_config cfg ~qps ~avg_workers =
  {
    Measure.default_config with
    Measure.syscall_scale = cfg.syscall_scale;
    idle_per_request = estimate_idle_per_request ~qps ~workers:avg_workers;
    stressor = cfg.stressor;
    stressor_placement = cfg.stressor_placement;
    smt_pressure = cfg.smt_pressure;
  }

let measure_memo_stats () = { Memo.hits = 0 }

(* Above this many tiers on one machine, the measurement phase is sharded
   across the Pool's domains. The threshold exceeds every hand-written app
   (social_network tops out around 30 tiers), so committed baselines keep
   their historical single-shard measurement bit-for-bit; only synthesized
   wide graphs take the sharded path. *)
let measure_shard_tiers = 32

let run_inner cfg ~load (app : Spec.t) =
  let tiers = app.Spec.tiers in
  let ntiers = List.length tiers in
  let engine = Ditto_sim.Engine.create () in
  Ditto_sim.Engine.set_profile_label engine app.Spec.app_name;
  let page_cache_bytes =
    match cfg.page_cache_bytes with Some b -> Some b | None -> app.Spec.page_cache_hint
  in
  let make_machine () = Machine.create ?page_cache_bytes ?cores:cfg.cores engine cfg.platform in
  (* O(1) int/string-indexed routing: tier -> machine and tier -> space are
     hash lookups, never tier-list scans (those made wide graphs O(n^2)). *)
  let placement_tbl : (string, Machine.t) Hashtbl.t = Hashtbl.create (2 * ntiers) in
  let machines =
    if cfg.cluster then
      List.map
        (fun (t : Spec.tier) ->
          let m = make_machine () in
          Hashtbl.replace placement_tbl t.Spec.tier_name m;
          m)
        tiers
    else begin
      let m = make_machine () in
      List.iter (fun (t : Spec.tier) -> Hashtbl.replace placement_tbl t.Spec.tier_name m) tiers;
      [ m ]
    end
  in
  let placement name = Hashtbl.find placement_tbl name in
  let space_tbl : (string, Layout.space) Hashtbl.t = Hashtbl.create (2 * ntiers) in
  List.iteri
    (fun i (t : Spec.tier) ->
      Hashtbl.replace space_tbl t.Spec.tier_name
        (Layout.space ~tier_index:i ~heap_bytes:t.Spec.heap_bytes
           ~shared_bytes:t.Spec.shared_bytes))
    tiers;
  (* Group tiers by machine (uid-keyed, order-preserving) for measurement. *)
  let hosted_by_machine : (int, (Spec.tier * Layout.space) list ref) Hashtbl.t =
    Hashtbl.create 16
  in
  List.iter
    (fun (t : Spec.tier) ->
      let m = placement t.Spec.tier_name in
      let cell =
        match Hashtbl.find_opt hosted_by_machine m.Machine.uid with
        | Some c -> c
        | None ->
            let c = ref [] in
            Hashtbl.add hosted_by_machine m.Machine.uid c;
            c
      in
      cell := (t, Hashtbl.find space_tbl t.Spec.tier_name) :: !cell)
    tiers;
  let avg_workers =
    let total =
      List.fold_left (fun a (t : Spec.tier) -> a + t.Spec.thread_model.Spec.workers) 0 tiers
    in
    max 1 (total / List.length tiers)
  in
  let mcfg = measure_config cfg ~qps:load.Service.qps ~avg_workers in
  let measure_on m ~seed hosted =
    Measure.run ~config:mcfg ~machine:m ~seed ~requests:cfg.requests hosted
    |> List.map (fun (r : Measure.tier_result) -> (r.Measure.tier.Spec.tier_name, r))
  in
  let measured =
    Ditto_obs.Obs.Span.with_span ~name:"runner.measure" (fun () ->
        List.concat_map
          (fun m ->
            let hosted =
              match Hashtbl.find_opt hosted_by_machine m.Machine.uid with
              | Some cell -> List.rev !cell
              | None -> []
            in
            if hosted = [] then []
            else if List.length hosted <= measure_shard_tiers then
              measure_on m ~seed:cfg.seed hosted
            else begin
              (* Wide graphs: shard the hosted tiers into fixed-size groups
                 and measure them across the Pool's domains, each shard on
                 its own scratch machine (per-domain machine pooling keeps
                 this cheap, and no mutable hardware state crosses domains).
                 Shard boundaries and seeds depend only on the tier list, so
                 results are bit-identical at any pool size. *)
              let shards = ref [] and cur = ref [] and k = ref 0 and si = ref 0 in
              List.iter
                (fun t ->
                  cur := t :: !cur;
                  incr k;
                  if !k = measure_shard_tiers then begin
                    shards := (!si, List.rev !cur) :: !shards;
                    incr si;
                    cur := [];
                    k := 0
                  end)
                hosted;
              if !cur <> [] then shards := (!si, List.rev !cur) :: !shards;
              let shards = List.rev !shards in
              let pool = Ditto_util.Pool.default () in
              Ditto_util.Pool.map pool
                (fun (si, shard) ->
                  let scratch_engine = Ditto_sim.Engine.create () in
                  let sm =
                    Machine.create ?page_cache_bytes ?cores:cfg.cores scratch_engine cfg.platform
                  in
                  let r = measure_on sm ~seed:(cfg.seed + (7919 * si)) shard in
                  Machine.release sm;
                  r)
                shards
              |> List.concat
            end)
          machines)
  in
  let measured_tbl : (string, Measure.tier_result) Hashtbl.t = Hashtbl.create (2 * ntiers) in
  List.iter (fun (name, r) -> Hashtbl.replace measured_tbl name r) measured;
  let results name = Hashtbl.find measured_tbl name in
  let service =
    Ditto_obs.Obs.Span.with_span ~name:"runner.service" (fun () ->
        let r =
          Service.run ~engine ~app ~placement ~results ~seed:(cfg.seed + 1)
            ~net_interference_gbps:cfg.net_interference_gbps ?fault_plan:cfg.fault_plan
            ~timeline:cfg.timeline ~reqtrace:cfg.reqtrace load
        in
        (match cfg.fault_plan with
        | None -> ()
        | Some plan ->
            let sum f = List.fold_left (fun a o -> a + f o) 0 r.Service.tiers in
            Ditto_obs.Obs.Span.add_attr "chaos_plan" (Str plan.Ditto_fault.Plan.plan_name);
            Ditto_obs.Obs.Span.add_attr "chaos_errors" (Int r.Service.errors);
            Ditto_obs.Obs.Span.add_attr "chaos_shed" (Int (sum (fun o -> o.Service.obs_shed)));
            Ditto_obs.Obs.Span.add_attr "chaos_retries"
              (Int (r.Service.client_retries + sum (fun o -> o.Service.obs_retries)));
            Ditto_obs.Obs.Span.add_attr "chaos_timeouts"
              (Int (r.Service.client_timeouts + sum (fun o -> o.Service.obs_timeouts)));
            Ditto_obs.Obs.Metrics.add fault_timeouts_c
              (r.Service.client_timeouts + sum (fun o -> o.Service.obs_timeouts));
            Ditto_obs.Obs.Metrics.add fault_retries_c
              (r.Service.client_retries + sum (fun o -> o.Service.obs_retries));
            Ditto_obs.Obs.Metrics.add fault_shed_c (sum (fun o -> o.Service.obs_shed));
            Ditto_obs.Obs.Metrics.add fault_drops_c (sum (fun o -> o.Service.obs_link_drops)));
        (if Spec.has_autoscale app then begin
           let sum f = List.fold_left (fun a o -> a + f o) 0 r.Service.tiers in
           Ditto_obs.Obs.Span.add_attr "scale_events"
             (Int (List.length r.Service.scale_events));
           Ditto_obs.Obs.Span.add_attr "degraded"
             (Int (sum (fun o -> o.Service.obs_degraded)));
           Ditto_obs.Obs.Span.add_attr "replicas_final"
             (Int (sum (fun o -> o.Service.obs_replicas)))
         end);
        (match r.Service.reqtrace with
        | None -> ()
        | Some c ->
            Ditto_obs.Obs.Span.add_attr "reqtrace_sampled" (Int (Ditto_obs.Reqtrace.sampled c));
            Ditto_obs.Obs.Span.add_attr "reqtrace_requests"
              (Int (Ditto_obs.Reqtrace.requests_seen c)));
        r)
  in
  (* The windowed timeline carries request counts; the measured
     instructions-per-request basis lets exporters derive rate-form uarch
     series (insts/s) per window without having counted during the DES
     phase. *)
  (match service.Service.timeline with
  | None -> ()
  | Some ts ->
      List.iter
        (fun (t : Spec.tier) ->
          let r = results t.Spec.tier_name in
          let insts_per_req =
            float_of_int r.Measure.counters.Counters.insts
            /. float_of_int (max 1 r.Measure.requests_measured)
          in
          Ditto_obs.Timeseries.set_rate_basis ts ~tier:t.Spec.tier_name ~insts_per_req)
        tiers);
  let obs_tbl : (string, Service.tier_obs) Hashtbl.t = Hashtbl.create (2 * ntiers) in
  List.iter (fun o -> Hashtbl.replace obs_tbl o.Service.obs_name o) service.Service.tiers;
  let per_tier =
    List.map
      (fun (t : Spec.tier) ->
        let name = t.Spec.tier_name in
        let r = results name in
        let c = r.Measure.counters in
        let obs = Hashtbl.find obs_tbl name in
        let lat =
          (* Single-tier services are measured at the client, like the
             paper's load generators; tiers of a microservice are measured
             server-side. *)
          if ntiers = 1 then service.Service.latency else obs.Service.obs_latency
        in
        ( name,
          {
            Metrics.label = Printf.sprintf "%s/%s" app.Spec.app_name name;
            qps = service.Service.achieved_qps;
            ipc = Counters.ipc c;
            branch_miss_rate = Counters.branch_miss_rate c;
            l1i_miss_rate = Counters.l1i_miss_rate c;
            l1d_miss_rate = Counters.l1d_miss_rate c;
            l2_miss_rate = Counters.l2_miss_rate c;
            llc_miss_rate = Counters.llc_miss_rate c;
            net_mbps = obs.Service.obs_net_mbps;
            disk_mbps = obs.Service.obs_disk_mbps;
            lat_avg = lat.Ditto_util.Stats.mean;
            lat_p50 = lat.Ditto_util.Stats.p50;
            lat_p95 = lat.Ditto_util.Stats.p95;
            lat_p99 = lat.Ditto_util.Stats.p99;
            topdown = Counters.topdown c;
            counters = c;
            faults =
              {
                Metrics.timeouts = obs.Service.obs_timeouts;
                retries = obs.Service.obs_retries;
                shed = obs.Service.obs_shed;
                failures = obs.Service.obs_failures;
                breaker_transitions = obs.Service.obs_breaker_transitions;
                link_drops = obs.Service.obs_link_drops;
              };
          } ))
      tiers
  in
  (* Both phases are done and every consumer reads results through the
     returned traces/counters, so the machines can rejoin the free pool.
     (On an exception the machines are simply dropped — correct, just not
     reused.) *)
  List.iter Machine.release machines;
  (* Drop the run's event storage so back-to-back wide clones never hold
     two peak-sized heaps at once. *)
  Ditto_sim.Engine.reset engine;
  { app; per_tier; end_to_end = service.Service.latency; service; measured }

let run cfg ~load (app : Spec.t) =
  if not (Ditto_obs.Obs.enabled ()) then run_inner cfg ~load app
  else
    Ditto_obs.Obs.Span.with_span ~name:"runner.run"
      ~attrs:
        [
          ("app", Str app.Spec.app_name);
          ("qps", Float load.Service.qps);
          ("requests", Int cfg.requests);
          ("seed", Int cfg.seed);
        ]
      (fun () -> run_inner cfg ~load app)

let tier_metrics output name =
  match List.assoc_opt name output.per_tier with
  | Some m -> m
  | None ->
      invalid_arg
        (Printf.sprintf "Runner.tier_metrics: unknown tier %S (known: %s)" name
           (String.concat ", " (List.map fst output.per_tier)))
