(* Closed-loop benchmark of the Ditto pipeline.

   One caller issues [Ditto_core.Pipeline] calls back to back on a pool of
   nproc domains: the next call starts when the previous one returns. A
   workload names the calls of each round; the timed phase runs rounds
   until the time budget is spent. Every call gets its own runner
   seed, derived from the workload seed, the round and the call index, so
   no two calls of a run share a measurement-memo key and every round does
   its full work.

   [--trace 0] prints the end-to-end metrics. [--trace 1] replays the same
   rounds with the program's own spans and counters turned on, checks that
   the simulated outputs did not change, and prints the per-layer ledger.
   README.md has the metric table, the layer map and the workload design. *)

open Ditto_app
module Pipeline = Ditto_core.Pipeline
module Registry = Ditto_apps.Registry
module Platform = Ditto_uarch.Platform
module Stats = Ditto_util.Stats
module Pool = Ditto_util.Pool
module Obs = Ditto_obs.Obs
module Tuner = Ditto_tune.Tuner

let now = Unix.gettimeofday

(* {1 Scale}

   Every call is scaled down from the paper-figure harness (bench/main.ml
   validates 0.6 simulated seconds with 220 measured requests per tier) so
   that a round takes seconds and a run holds several rounds. *)

let requests = 80 (* measurement-phase requests per tier *)

(* The 22-tier social_network measures every tier on one machine; fewer
   requests per tier keep one validation of it at about two seconds. *)
let fanout_requests = 30

let duration = 0.15 (* simulated seconds of load per validation *)
let setup_repeats = 3

(* Seed of the untuned clones made at set-up, the same for every workload
   seed, which drives the simulated traffic instead. How faithful an
   untuned social_network clone is depends on its own seed (mean counter
   error 10-22% over ten seeds), which would drown any other change in
   the fidelity metrics. *)
let clone_seed = 42

(* Fidelity metrics average over a workload's first [fidelity_rounds]
   rounds, which every run completes whatever its time budget, so they are
   a function of the seed alone. *)
let fidelity_rounds = 3

let platform = Platform.a

(* {1 Per-call outcome and output checks} *)

type outcome = {
  sim_requests : int;  (** client requests completed + failed, every run *)
  counter_err : float list;  (** % error per counter axis and focus tier *)
  p99_err : float;  (** end-to-end p99, clone vs original, % *)
  tuning : Tuner.report option;
  shed_gap_pp : float option;
  error_rate_gap_pp : float option;
  insts : int;  (** simulated instructions in the returned tier results *)
  scale_events : int;
  digest : string;  (** per-tier counters and request counts of every run *)
}

let counter_axes = [ "IPC"; "Branch"; "L1i"; "L1d"; "L2"; "LLC" ]
let fail fmt = Printf.ksprintf failwith fmt

let check_finite what xs =
  List.iter (fun x -> if not (Float.is_finite x) then fail "%s: non-finite value" what) xs

let check_side side (r : Service.result) tiers =
  if r.Service.completed = 0 then fail "%s: no request completed" side;
  let s = r.Service.latency in
  check_finite (side ^ " end-to-end latency") [ s.Stats.mean; s.Stats.p50; s.Stats.p99 ];
  List.iter
    (fun (name, (m : Metrics.t)) ->
      check_finite (side ^ "/" ^ name)
        [
          m.Metrics.ipc; m.branch_miss_rate; m.l1i_miss_rate; m.l1d_miss_rate; m.l2_miss_rate;
          m.llc_miss_rate; m.net_mbps; m.disk_mbps; m.lat_avg; m.lat_p99;
        ])
    tiers

(* One simulated run inside a call: per-tier metrics, service result and
   measured tier results. *)
type run = (string * Metrics.t) list * Service.result * (string * Measure.tier_result) list

(* The digest covers what a simulator-only speed-up must leave identical:
   per-tier counters and metrics (floats in exact hex form) and the
   request/error/shed counts of every run of the call. *)
let digest_of (runs : run list) =
  let b = Buffer.create 1024 in
  List.iter
    (fun (tiers, (r : Service.result), _) ->
      List.iter
        (fun (name, (m : Metrics.t)) ->
          let k = m.Metrics.counters in
          Printf.bprintf b "%s %d %d %d %d %d %d %h %h %h %h %h;" name k.insts k.branches
            k.mispredicts k.l1i_misses k.l1d_misses k.llc_misses m.Metrics.ipc m.lat_avg m.lat_p99
            m.net_mbps m.qps)
        tiers;
      Printf.bprintf b "|%d %d %d %d|" r.Service.completed r.errors r.client_timeouts
        r.client_retries;
      List.iter
        (fun (o : Service.tier_obs) ->
          Printf.bprintf b "%s %d %d %d %d %d;" o.obs_name o.obs_requests o.obs_shed o.obs_timeouts
            o.obs_retries o.obs_replicas)
        r.tiers)
    runs;
  Digest.to_hex (Digest.string (Buffer.contents b))

(* [reference] is the run of the original that [Pipeline.clone] makes
   before profiling: simulated and measured work of the call like the
   validation's two runs, so its requests and instructions count too. *)
let outcome_of_comparison ~focus ?tuning ?reference (c : Pipeline.comparison) =
  check_side "actual" c.Pipeline.actual_service c.actual;
  check_side "clone" c.synthetic_service c.synthetic;
  Option.iter
    (fun (r : Runner.output) -> check_side "reference" r.Runner.service r.per_tier)
    reference;
  let counter_err =
    List.concat_map
      (fun tier ->
        let actual = List.assoc tier c.actual and synthetic = List.assoc tier c.synthetic in
        List.filter_map
          (fun (axis, e) -> if List.mem axis counter_axes then Some e else None)
          (Metrics.error_pct ~actual ~synthetic))
      focus
  in
  if counter_err = [] then fail "no counter axis to compare";
  let a99 = c.actual_end_to_end.Stats.p99 and s99 = c.synthetic_end_to_end.Stats.p99 in
  let p99_err = 100. *. Float.abs (s99 -. a99) /. a99 in
  check_finite "p99 error" (p99_err :: counter_err);
  (match tuning with
  | Some (r : Tuner.report) when r.Tuner.iterations = [] -> fail "empty tuner report"
  | _ -> ());
  let runs =
    (c.actual, c.actual_service, c.actual_measured)
    :: (c.synthetic, c.synthetic_service, c.synthetic_measured)
    :: List.map (fun (r : Runner.output) -> (r.per_tier, r.service, r.measured))
         (Option.to_list reference)
  in
  let sum_runs f = List.fold_left (fun a run -> a + f run) 0 runs in
  {
    sim_requests = sum_runs (fun (_, r, _) -> r.Service.completed + r.errors);
    counter_err;
    p99_err;
    tuning;
    shed_gap_pp = None;
    error_rate_gap_pp = None;
    insts =
      sum_runs (fun (_, _, measured) ->
          List.fold_left
            (fun a (_, (t : Measure.tier_result)) ->
              a + t.Measure.counters.Ditto_uarch.Counters.insts)
            0 measured);
    scale_events = sum_runs (fun (_, r, _) -> List.length r.Service.scale_events);
    digest = digest_of runs;
  }

(* Shed fraction of one side, from the per-tier observations: requests
   shed anywhere over shed + completed at the client. *)
let shed_pct (r : Service.result) =
  let shed = List.fold_left (fun a (o : Service.tier_obs) -> a + o.obs_shed) 0 r.Service.tiers in
  100. *. float_of_int shed /. float_of_int (max 1 (shed + r.completed))

let outcome_of_chaos ~focus (ch : Pipeline.chaos) =
  let o = outcome_of_comparison ~focus ch.Pipeline.comparison in
  {
    o with
    shed_gap_pp = Some (Float.abs (shed_pct ch.actual_service -. shed_pct ch.synthetic_service));
    error_rate_gap_pp =
      Some
        (100.
        *. Float.abs
             (Pipeline.error_rate ch.actual_service -. Pipeline.error_rate ch.synthetic_service)
        );
  }

(* {1 Workloads} *)

type app = { entry : Registry.entry; clone : Pipeline.clone_result }

type workload = {
  name : string;
  apps : string list;  (** cloned untuned at set-up *)
  requests : int;  (** measurement-phase requests per tier *)
  fidelity_rounds : int;
  cycle : int;  (** rounds per cycle of loads; [sim_req_per_s] counts whole cycles *)
  calls : Pool.t -> app list -> round:int -> (string * (call_seed:int -> outcome)) list;
      (** the labelled calls of one round *)
}

(* Benchmark-side span around each public layer function the benchmark
   calls; a no-op unless tracing is on. *)
let span name f = Obs.Span.with_span ~name:("bench:" ^ name) f

let load_of (e : Registry.entry) qps =
  Ditto_loadgen.Workload.to_load e.Registry.workload ~qps ~duration ()

let loads (e : Registry.entry) =
  let low, med, high = e.Registry.loads in
  [ ("low", low); ("med", med); ("high", high) ]

let medium (e : Registry.entry) =
  let _, med, _ = e.Registry.loads in
  load_of e med

let runner_config ?(requests = requests) ~seed p = Runner.config ~requests ~seed p

let validate ?requests pool ~seed ~load ~label clone =
  span "Pipeline.validate" (fun () ->
      Pipeline.validate ~pool ~config_of:(runner_config ?requests ~seed) ~platform ~load ~label
        clone)

let singles = [ "redis"; "memcached" ]

let clone_tune =
  {
    name = "clone-tune";
    (* The set-up clones only warm the process (see [setup_once]); the
       rounds clone afresh. *)
    apps = singles;
    requests;
    fidelity_rounds;
    cycle = 1;
    calls =
      (fun pool apps ~round:_ ->
        List.map
          (fun { entry; _ } ->
            ( entry.Registry.name,
              fun ~call_seed ->
                let load = medium entry in
                let clone =
                  span "Pipeline.clone" (fun () ->
                      Pipeline.clone ~pool ~tune:true ~requests ~profile_requests:requests ~seed:call_seed
                        ~platform ~load (entry.Registry.spec ()))
                in
                let c = validate pool ~seed:(call_seed + 32) ~load ~label:"med" clone in
                outcome_of_comparison ~focus:entry.Registry.focus_tiers
                  ?tuning:clone.Pipeline.tuning ~reference:clone.Pipeline.reference c ))
          apps);
  }

let fanout_validate =
  {
    name = "fanout-validate";
    apps = [ "social_network" ];
    requests = fanout_requests;
    (* One validation per round, the load cycling low -> medium -> high:
       measurement dominates and costs the same at every load, so rounds
       are alike and a run holds about ten of them rather than four.
       Fidelity covers two cycles. *)
    fidelity_rounds = 6;
    cycle = 3;
    calls =
      (fun pool apps ~round ->
        List.map
          (fun { entry; clone } ->
            let label, qps = List.nth (loads entry) (round mod 3) in
            ( entry.Registry.name ^ "@" ^ label,
              fun ~call_seed ->
                let c =
                  validate ~requests:fanout_requests pool ~seed:call_seed
                    ~load:(load_of entry qps) ~label clone
                in
                let card =
                  span "Scorecard.of_comparison" (fun () ->
                      Ditto_report.Scorecard.of_comparison ~app:entry.Registry.name c)
                in
                if card.Ditto_report.Scorecard.app <> entry.Registry.name then
                  fail "scorecard for the wrong app";
                outcome_of_comparison ~focus:entry.Registry.focus_tiers c ))
          apps);
  }

let serve_sweep =
  {
    name = "serve-sweep";
    apps = singles;
    requests;
    fidelity_rounds;
    cycle = 1;
    calls =
      (fun pool apps ~round:_ ->
        List.concat_map
          (fun { entry; clone } ->
            List.map
              (fun (label, qps) ->
                ( entry.Registry.name ^ "@" ^ label,
                  fun ~call_seed ->
                    validate pool ~seed:call_seed ~load:(load_of entry qps) ~label clone
                    |> outcome_of_comparison ~focus:entry.Registry.focus_tiers ))
              (loads entry))
          apps);
  }

(* The settings of [bench surge]: kill-mid-tier composed with a 4x flash
   crowd, a tight queue bound so the crowd sheds, autoscaling armed. *)
let surge =
  {
    name = "surge";
    apps = singles;
    requests;
    fidelity_rounds;
    cycle = 1;
    calls =
      (fun pool apps ~round:_ ->
        List.map
          (fun { entry; clone } ->
            ( entry.Registry.name ^ "@surge",
              fun ~call_seed ->
                let tiers =
                  List.map
                    (fun (t : Spec.tier) -> t.Spec.tier_name)
                    clone.Pipeline.original.Spec.tiers
                in
                let ch =
                  span "Pipeline.validate_under" (fun () ->
                      Pipeline.validate_under ~pool ~config_of:(runner_config ~seed:call_seed)
                        ~resilience:(Spec.resilient ~queue_bound:48 ())
                        ~autoscale:(Spec.autoscale ~max_replicas:4 ())
                        ~platform ~load:(medium entry)
                        ~plan:(Ditto_fault.Plan.kill_mid_tier ~duration ~tiers ())
                        ~profile:(Ditto_loadgen.Profile.flash_crowd ~duration ())
                        ~label:"surge" clone)
                in
                outcome_of_chaos ~focus:entry.Registry.focus_tiers ch ))
          apps);
  }

let workloads = [ clone_tune; fanout_validate; serve_sweep; surge ]

(* {1 Closed loop} *)

type round = { wall : float; results : (string * (outcome, string) result) list }

(* Distinct for every (round, call) of a run and never equal to
   [clone_seed], so the runner's measurement memo cannot hit. *)
let call_seed ~seed ~round ~k = (seed * 100_003) + 1 + (round * 64) + k

(* Run [f] once on every pool domain: one task per domain, each spinning
   until all have started, so no domain can take two. *)
let on_every_domain pool f =
  let n = Pool.size pool in
  let pending = Atomic.make n in
  Pool.map pool
    (fun () ->
      Atomic.decr pending;
      while Atomic.get pending > 0 do
        Domain.cpu_relax ()
      done;
      f ())
    (List.init n ignore)

(* Process-wide measurement-memo hits: the memo is domain-local. *)
let memo_hits pool =
  List.fold_left ( + ) 0
    (on_every_domain pool (fun () -> (Runner.measure_memo_stats ()).Ditto_uarch.Memo.hits))

let run_round pool w apps ~seed ~round =
  let t0 = now () in
  let results =
    Obs.Span.with_span ~name:"bench.round" (fun () ->
        List.mapi
          (fun k (label, f) ->
            let r =
              try Ok (f ~call_seed:(call_seed ~seed ~round ~k))
              with e -> Error (Printexc.to_string e)
            in
            (label, r))
          (w.calls pool apps ~round))
  in
  { wall = now () -. t0; results }

(* Start a round only while the previous round's length still fits in the
   budget; the first [w.fidelity_rounds] rounds always run. *)
let run_rounds pool w apps ~seed ~budget ~max_rounds =
  let t0 = now () in
  let rec go r acc =
    let last = match acc with x :: _ -> x.wall | [] -> 0. in
    if r >= max_rounds || (r >= w.fidelity_rounds && now () -. t0 +. last > budget) then
      List.rev acc
    else go (r + 1) (run_round pool w apps ~seed ~round:r :: acc)
  in
  go 0 []

(* Set-up: untuned clones of the workload's apps, then one warm-up
   validation of each, so both pool domains hold pooled machines and the
   heap has grown before round 0 (without it round 0 runs ~1.4x slower).
   Warm-up seeds sit outside the round seeds' range. *)
let setup_once pool w ~seed =
  let t0 = now () in
  let apps =
    Obs.Span.with_span ~name:"bench.setup" (fun () ->
        List.mapi
          (fun k name ->
            let entry = Registry.by_name name in
            let clone =
              span "Pipeline.clone" (fun () ->
                  Pipeline.clone ~pool ~tune:false ~requests:w.requests
                    ~profile_requests:w.requests ~seed:clone_seed ~platform ~load:(medium entry)
                    (entry.Registry.spec ()))
            in
            ignore
              (validate ~requests:w.requests pool
                 ~seed:((seed * 100_003) + 50_000 + k)
                 ~load:(medium entry) ~label:"warm-up" clone);
            { entry; clone })
          w.apps)
  in
  (apps, now () -. t0)

(* {1 Statistics} *)

let median xs =
  match List.sort compare xs with
  | [] -> nan
  | s ->
      let n = List.length s in
      if n mod 2 = 1 then List.nth s (n / 2)
      else (List.nth s ((n / 2) - 1) +. List.nth s (n / 2)) /. 2.

let sum = List.fold_left ( +. ) 0.
let mean = function [] -> nan | xs -> sum xs /. float_of_int (List.length xs)

let oks rounds =
  List.concat_map (fun r -> List.filter_map (fun (_, o) -> Result.to_option o) r.results) rounds

(* Sum of an integer field over the successful calls of [rounds]. *)
let total rounds f = float_of_int (List.fold_left (fun a o -> a + f o) 0 (oks rounds))

let count_calls rounds = List.fold_left (fun a r -> a + List.length r.results) 0 rounds

let count_failed rounds =
  List.fold_left
    (fun a r -> a + List.length (List.filter (fun (_, o) -> Result.is_error o) r.results))
    0 rounds

let report_failures rounds =
  List.iteri
    (fun i r ->
      List.iter
        (function
          | label, Error msg -> Printf.printf "FAILED round %d %s: %s\n" i label msg
          | _, Ok _ -> ())
        r.results)
    rounds

(* {1 Output} *)

type metric = { m_name : string; value : float; unit_ : string }

let m m_name unit_ value = { m_name; value; unit_ }
let json_number x = if Float.is_finite x then Printf.sprintf "%.17g" x else "0"

let print_metrics = List.iter (fun x -> Printf.printf "%-24s %14.6g %s\n" x.m_name x.value x.unit_)

let print_result ~correct ~attempted ~failed metrics =
  let body =
    List.map
      (fun x ->
        Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" x.m_name (json_number x.value) x.unit_)
      metrics
  in
  Printf.printf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n%!"
    correct attempted failed (String.concat ", " body)

(* Linux only: nan (0 in the result line) where /proc is missing. *)
let peak_rss_mb () =
  match In_channel.with_open_text "/proc/self/status" In_channel.input_all with
  | exception Sys_error _ -> nan
  | s -> (
      match
        List.find_opt (String.starts_with ~prefix:"VmHWM:") (String.split_on_char '\n' s)
      with
      | Some l -> Scanf.sscanf l "VmHWM: %d kB" (fun kb -> float_of_int kb /. 1024.)
      | None -> nan)

(* {1 Untraced run: end-to-end metrics} *)

(* Clone-vs-original fidelity over the first [w.fidelity_rounds] rounds, so
   a function of the seed alone. Metrics with no outcome to average (the
   tuner's outside clone-tune, the gaps outside surge) read nan. *)
let fidelity w rounds =
  let fid = oks (List.filteri (fun i _ -> i < w.fidelity_rounds) rounds) in
  let errs = List.concat_map (fun o -> o.counter_err) fid in
  let tuned = List.filter_map (fun o -> o.tuning) fid in
  let of_tuning f = mean (List.map f tuned) in
  [
    m "counter_err_pct" "%" (mean errs);
    m "worst_counter_err_pct" "%"
      (match errs with [] -> nan | e :: es -> List.fold_left Float.max e es);
    m "p99_err_pct" "%" (mean (List.map (fun o -> o.p99_err) fid));
    m "tune_iters" "count"
      (of_tuning (fun (r : Tuner.report) -> float_of_int (List.length r.Tuner.iterations)));
    m "tune_converged" "frac"
      (of_tuning (fun (r : Tuner.report) -> if r.Tuner.converged then 1. else 0.));
    m "shed_gap_pp" "pp" (mean (List.filter_map (fun o -> o.shed_gap_pp) fid));
    m "error_rate_gap_pp" "pp" (mean (List.filter_map (fun o -> o.error_rate_gap_pp) fid));
  ]

let end_to_end pool w ~seed ~seconds =
  let setups = List.init setup_repeats (fun _ -> setup_once pool w ~seed) in
  let apps = fst (List.hd (List.rev setups)) in
  let setup_s = median (List.map snd setups) in
  let rounds = run_rounds pool w apps ~seed ~budget:seconds ~max_rounds:max_int in
  report_failures rounds;
  List.iteri
    (fun i r ->
      Printf.printf "round %d: %.3f s, %d call(s), %.0f sim request(s), %.2f Minst measured\n" i
        r.wall (List.length r.results)
        (total [ r ] (fun o -> o.sim_requests))
        (total [ r ] (fun o -> o.insts) /. 1e6))
    rounds;
  let attempted = count_calls rounds and failed = count_failed rounds in
  (* Loads differ in requests per round, so a run that stops partway
     through a cycle would weigh them unevenly. *)
  let whole = List.filteri (fun i _ -> i < List.length rounds / w.cycle * w.cycle) rounds in
  let host =
    [
      m "setup_s" "s" setup_s;
      m "wall_s" "s" (median (List.map (fun r -> r.wall) rounds));
      m "sim_req_per_s" "1/s"
        (total whole (fun o -> o.sim_requests) /. sum (List.map (fun r -> r.wall) whole));
    ]
  in
  let fid = fidelity w rounds in
  let others =
    [
      m "peak_rss_mb" "MB" (peak_rss_mb ());
      m "ops_failed_frac" "frac" (float_of_int failed /. float_of_int (max 1 attempted));
    ]
  in
  Printf.printf "rounds=%d calls=%d failed=%d sim_requests=%.0f\n" (List.length rounds) attempted
    failed
    (total rounds (fun o -> o.sim_requests));
  (* Every metric that applies to this workload; metrics of other
     workloads read nan. *)
  print_metrics (List.filter (fun x -> not (Float.is_nan x.value)) (host @ fid @ others));
  (* The result line carries the metrics that every workload has and that
     are steady across seeds (README.md); ops_failed_frac is its
     failed/attempted. *)
  print_result ~correct:(failed = 0) ~attempted ~failed
    (host @ List.filter (fun x -> x.m_name = "counter_err_pct") fid)

(* {1 Traced run: the per-layer ledger} *)

(* Span name -> layer, named after the module that owns the work. The
   benchmark's own spans carry a "bench" prefix; the one around
   [Scorecard.of_comparison] is the report layer's only span. *)
let layer_of name =
  let pre p = String.starts_with ~prefix:p name in
  if pre "bench:Scorecard" then "report"
  else if pre "bench" then "bench"
  else if pre "pool.task" then "pool"
  else if pre "pipeline." || name = "clone.reference" then "pipeline"
  else
    match name with
    | "clone.profile" -> "profile"
    | "clone.generate" -> "gen"
    | "clone.dag" -> "dag"
    | "tune" | "tune.iteration" -> "tune"
    | "tune.evaluate" | "runner.measure" -> "measure"
    | "runner.run" -> "runner"
    | "runner.service" -> "service"
    | "sim.run" -> "sim"
    | other -> other

type layer = { mutable self_s : float; mutable call_s : float; mutable spans : int }

let no_layer = { self_s = 0.; call_s = 0.; spans = 0 }

(* Per-layer self and call seconds over the retained spans. Self time
   subtracts only same-domain children (they nest on that domain's stack);
   a pool task running on another domain is its own span there. All
   seconds are domain-seconds: parallel work on two domains counts twice.
   Call seconds count a span only when no ancestor belongs to its layer. *)
let ledger (spans : Obs.completed list) =
  let by_id = Hashtbl.create 1024 in
  List.iter (fun (s : Obs.completed) -> Hashtbl.replace by_id s.Obs.span_id s) spans;
  let parent (s : Obs.completed) = Option.bind s.Obs.parent_id (Hashtbl.find_opt by_id) in
  let child_ns = Hashtbl.create 1024 in
  List.iter
    (fun (s : Obs.completed) ->
      match parent s with
      | Some p when p.Obs.domain = s.Obs.domain ->
          let cur = Option.value ~default:0L (Hashtbl.find_opt child_ns p.Obs.span_id) in
          Hashtbl.replace child_ns p.Obs.span_id (Int64.add cur s.Obs.dur_ns)
      | _ -> ())
    spans;
  let layers = Hashtbl.create 16 in
  let rec nested_in l s =
    match parent s with None -> false | Some p -> layer_of p.Obs.name = l || nested_in l p
  in
  let secs ns = Int64.to_float ns *. 1e-9 in
  List.iter
    (fun (s : Obs.completed) ->
      let l = layer_of s.Obs.name in
      let x =
        match Hashtbl.find_opt layers l with
        | Some x -> x
        | None ->
            let x = { self_s = 0.; call_s = 0.; spans = 0 } in
            Hashtbl.add layers l x;
            x
      in
      let children = Option.value ~default:0L (Hashtbl.find_opt child_ns s.Obs.span_id) in
      x.self_s <- x.self_s +. secs (Int64.sub s.Obs.dur_ns children);
      x.spans <- x.spans + 1;
      if not (nested_in l s) then x.call_s <- x.call_s +. secs s.Obs.dur_ns)
    spans;
  fun l -> Option.value ~default:no_layer (Hashtbl.find_opt layers l)

let span_seconds spans name =
  List.fold_left
    (fun (n, t) (s : Obs.completed) ->
      if s.Obs.name = name then (n + 1, t +. (Int64.to_float s.Obs.dur_ns *. 1e-9)) else (n, t))
    (0, 0.) spans

let layer_names =
  [ "bench"; "pipeline"; "runner"; "measure"; "service"; "sim"; "tune"; "profile"; "gen"; "dag";
    "report"; "pool" ]

(* Pool.stats charges a worker's idle wait only when the wait ends; a
   fence wakes every worker so the idle counter is current at the traced
   window's edges. *)
let fence pool = ignore (on_every_domain pool ignore)

let traced pool w ~seed ~seconds ~chrome =
  (* Two set-ups before either pass, so both passes run equally warm. Each
     pass has its own clones, so the traced replay cannot hit the
     measurement memo the untraced pass filled. The second set-up is
     traced for its own ledger. *)
  let plain_apps, _ = setup_once pool w ~seed in
  Obs.enable ();
  Obs.Export.clear ();
  Obs.Metrics.reset ();
  let apps, _ = setup_once pool w ~seed in
  let setup_layer = ledger (Obs.Export.spans ()) in
  Obs.disable ();
  (* Untraced pass: the reference outputs and wall time. *)
  let plain = run_rounds pool w plain_apps ~seed ~budget:(seconds /. 2.) ~max_rounds:max_int in
  let n = List.length plain in
  (* Traced pass: the same rounds again. *)
  Obs.enable ();
  fence pool;
  Obs.Export.clear ();
  Obs.Metrics.reset ();
  let p0 = Pool.stats () and g0 = Gc.quick_stat () and t0 = now () in
  let rounds = run_rounds pool w apps ~seed ~budget:infinity ~max_rounds:n in
  let window = now () -. t0 in
  fence pool;
  let p1 = Pool.stats () and g1 = Gc.quick_stat () in
  let spans = Obs.Export.spans () in
  let counters = Obs.Metrics.snapshot () in
  let dropped = Obs.Export.dropped () in
  Option.iter Obs.Export.write_chrome chrome;
  Obs.disable ();
  (* Call by call, the traced outputs must equal the untraced ones. *)
  let mismatches = ref 0 in
  let rounds =
    List.map2
      (fun (p : round) (t : round) ->
        let results =
          List.map2
            (fun (_, po) (label, to_) ->
              match (po, to_) with
              | Ok a, Ok b when a.digest <> b.digest ->
                  incr mismatches;
                  (label, Error "traced output differs from untraced output")
              | _ -> (label, to_))
            p.results t.results
        in
        { t with results })
      plain rounds
  in
  report_failures plain;
  report_failures rounds;
  let attempted = count_calls plain + count_calls rounds in
  let failed = count_failed plain + count_failed rounds in
  let layer = ledger spans in
  let domains = Pool.size pool in
  let capacity = float_of_int domains *. window in
  let busy = p1.Pool.busy_seconds -. p0.Pool.busy_seconds in
  let idle = p1.Pool.idle_seconds -. p0.Pool.idle_seconds in
  let self_total = sum (List.map (fun l -> (layer l).self_s) layer_names) in
  let reconcile_pct = 100. *. Float.abs (self_total +. idle -. capacity) /. capacity in
  let counter name = Option.value ~default:0. (List.assoc_opt name counters) in
  let total = total rounds in
  let sim_requests = total (fun o -> o.sim_requests) in
  let insts = total (fun o -> o.insts) in
  let tune_iters =
    total (fun o -> Option.fold ~none:0 ~some:(fun r -> List.length r.Tuner.iterations) o.tuning)
  in
  let evals, eval_s = span_seconds spans "tune.evaluate" in
  let evals = float_of_int evals in
  let won = counter "tuner.candidates_won" and lost = counter "tuner.candidates_lost" in
  let events = counter "sim.events" in
  let plain_wall = sum (List.map (fun r -> r.wall) plain) in
  let traced_wall = sum (List.map (fun r -> r.wall) rounds) in
  let ratio a b = if b > 0. then a /. b else 0. in
  let measure = layer "measure" and sim = layer "sim" and service = layer "service" in
  Printf.printf "traced %d round(s): window %.3f s x %d domain(s) = %.3f domain-s\n" n window
    domains capacity;
  Printf.printf "%-10s %10s %10s %8s %7s\n" "layer" "call_s" "self_s" "share" "spans";
  List.iter
    (fun l ->
      let x = layer l in
      Printf.printf "%-10s %10.3f %10.3f %7.1f%% %7d\n" l x.call_s x.self_s
        (100. *. x.self_s /. capacity) x.spans)
    layer_names;
  Printf.printf "%-10s %10s %10.3f %7.1f%%\n" "idle" "" idle (100. *. idle /. capacity);
  Printf.printf "reconcile: self %.3f + idle %.3f vs %.3f domain-s: %.2f%% off (limit 5%%)\n"
    self_total idle capacity reconcile_pct;
  Printf.printf "tracing overhead: traced %.3f s - untraced %.3f s = %+.3f s over %d round(s)\n"
    traced_wall plain_wall (traced_wall -. plain_wall) n;
  Printf.printf "spans: %d retained, %d dropped; digest mismatches: %d of %d call(s)\n"
    (List.length spans) dropped !mismatches (count_calls rounds);
  Printf.printf
    "counts: %.0f sim request(s), %.0f event(s), %.0f Minst, %.0f tuner evaluation(s) in %.0f \
     iteration(s), %.0f of %.0f speculative candidate(s) kept\n"
    sim_requests events (insts /. 1e6) evals tune_iters won (won +. lost);
  Printf.printf "setup (traced, outside the table): profile %.3f s, gen %.3f s, dag %.3f s, measure %.3f s\n"
    (setup_layer "profile").self_s (setup_layer "gen").self_s (setup_layer "dag").self_s
    (setup_layer "measure").self_s;
  let metrics =
    [
      m "measure.s" "s" measure.self_s;
      m "measure.calls" "count" (float_of_int measure.spans);
      m "measure.minst" "Minst" (insts /. 1e6);
      (* [insts] counts the tier results of the calls' runs only, so the
         rate leaves out the tuner's isolated measurements. *)
      m "measure.ns_per_inst" "ns" (ratio (snd (span_seconds spans "runner.measure") *. 1e9) insts);
      m "sim.run_s" "s" sim.self_s;
      m "sim.events" "count" events;
      m "sim.ns_per_event" "ns" (ratio (sim.self_s *. 1e9) events);
      m "sim.peak_heap_events" "count" (float_of_int (Ditto_sim.Engine.global_peak_heap_events ()));
      m "service.s" "s" service.self_s;
      m "service.us_per_req" "us" (ratio ((service.self_s +. sim.self_s) *. 1e6) sim_requests);
      m "tune.s" "s" (layer "tune").call_s;
      m "tune.iterations" "count" tune_iters;
      m "tune.evals" "count" evals;
      m "tune.eval_s_mean" "s" (ratio eval_s evals);
      m "tune.won_ratio" "frac" (ratio won (won +. lost));
      m "profile.s" "s" (layer "profile").self_s;
      m "gen.s" "s" (layer "gen").self_s;
      m "gen.blocks" "count" (counter "gen.blocks");
      m "dag.s" "s" (layer "dag").self_s;
      m "setup.profile_s" "s" (setup_layer "profile").self_s;
      m "setup.gen_s" "s" (setup_layer "gen").self_s;
      m "setup.dag_s" "s" (setup_layer "dag").self_s;
      m "fault.timeouts" "count" (counter "fault.timeouts");
      m "fault.retries" "count" (counter "fault.retries");
      m "fault.shed" "count" (counter "fault.shed");
      m "fault.link_drops" "count" (counter "fault.link_drops");
      m "scale.events" "count" (total (fun o -> o.scale_events));
      m "pipeline.s" "s" (layer "pipeline").call_s;
      m "pipeline.self_s" "s" (layer "pipeline").self_s;
      m "runner.s" "s" (layer "runner").call_s;
      m "runner.self_s" "s" (layer "runner").self_s;
      m "report.s" "s" (layer "report").call_s;
      m "report.self_s" "s" (layer "report").self_s;
      m "bench.self_s" "s" (layer "bench").self_s;
      m "pool.busy_s" "s" busy;
      m "pool.idle_s" "s" idle;
      m "pool.parallel_eff" "frac" (ratio busy capacity);
      m "gc.minor_mwords" "Mwords" ((g1.Gc.minor_words -. g0.Gc.minor_words) /. 1e6);
      m "gc.major_collections" "count"
        (float_of_int (g1.Gc.major_collections - g0.Gc.major_collections));
      m "gc.top_heap_mb" "MB" (float_of_int (g1.Gc.top_heap_words * (Sys.word_size / 8)) /. 1e6);
      m "gc.peak_rss_mb" "MB" (peak_rss_mb ());
      m "trace.wall_s" "s" traced_wall;
      m "trace.overhead_s" "s" (traced_wall -. plain_wall);
      m "trace.reconcile_pct" "%" reconcile_pct;
      m "memo.hits" "count" (float_of_int (memo_hits pool));
    ]
    (* The fidelity metrics too noisy across seeds for a bound, and those
       of a single workload, ride here (identical to the untraced run's). *)
    @ List.map (fun x -> { x with m_name = "fidelity." ^ x.m_name }) (fidelity w rounds)
  in
  print_metrics metrics;
  print_result ~correct:(failed = 0 && dropped = 0 && reconcile_pct <= 5.) ~attempted ~failed
    metrics

(* {1 Command line} *)

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 10. and trace = ref 0 in
  let chrome = ref None in
  let names = String.concat ", " (List.map (fun w -> w.name) workloads) in
  let spec =
    [
      ("--workload", Arg.Set_string workload, "NAME  one of: " ^ names);
      ("--seed", Arg.Set_int seed, "N  workload seed");
      ("--seconds", Arg.Set_float seconds, "S  time budget of the timed phase");
      ("--trace", Arg.Set_int trace, "0|1  end-to-end metrics, or the traced per-layer ledger");
      ("--chrome", Arg.String (fun f -> chrome := Some f), "FILE  traced run: write spans as Chrome JSON");
    ]
  in
  let usage = "perfbench --workload NAME --seed N --seconds S --trace 0|1 [--chrome FILE]" in
  Arg.parse spec (fun a -> raise (Arg.Bad ("unexpected argument " ^ a))) usage;
  match List.find_opt (fun w -> w.name = !workload) workloads with
  | None ->
      Printf.eprintf "unknown workload %S (known: %s)\n" !workload names;
      exit 2
  | Some _ when !trace <> 0 && !trace <> 1 ->
      prerr_endline "--trace takes 0 or 1";
      exit 2
  | Some w ->
      let pool = Pool.create ~size:(Domain.recommended_domain_count ()) () in
      Printf.printf "perfbench workload=%s seed=%d seconds=%g trace=%d\n" w.name !seed !seconds
        !trace;
      Printf.printf "env: nproc=%d pool_domains=%d ocaml=%s ditto_memo=%s seed=%d\n"
        (Domain.recommended_domain_count ())
        (Pool.size pool) Sys.ocaml_version
        (if Ditto_uarch.Memo.enabled () then "on" else "off")
        !seed;
      if !trace = 0 then end_to_end pool w ~seed:!seed ~seconds:!seconds
      else traced pool w ~seed:!seed ~seconds:!seconds ~chrome:!chrome;
      Pool.shutdown pool
