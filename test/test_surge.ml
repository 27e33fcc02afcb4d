(* The overload layer: rate profiles as data (shape validation, the
   multiplier algebra, JSON), the canonical surge profiles, the arrival
   process they drive, the queue-depth PI autoscaler (deterministic
   scale events, bounds, cooldown), graceful degradation, the
   bit-identity guarantee (a constant/absent profile leaves the event
   stream exactly as the pre-profile code), and the surge-fidelity
   scorecard. *)
open Ditto_app
open Ditto_isa
module Profile = Ditto_loadgen.Profile
module Plan = Ditto_fault.Plan
module Pipeline = Ditto_core.Pipeline
module Surge = Ditto_report.Surge
module Platform = Ditto_uarch.Platform
module Rng = Ditto_util.Rng
module Pool = Ditto_util.Pool

let contains hay needle =
  let h = String.length hay and n = String.length needle in
  let rec go i = i + n <= h && (String.sub hay i n = needle || go (i + 1)) in
  go 0

(* {1 Rate: validation and the multiplier algebra} *)

let test_rate_validation () =
  let invalid msg shape =
    match Rate.make ~name:"bad" shape with
    | _ -> Alcotest.failf "%s accepted" msg
    | exception Invalid_argument _ -> ()
  in
  invalid "amplitude above 1" [ Rate.Sinusoid { amplitude = 1.5; period = 1.0; phase = 0.0 } ];
  invalid "negative amplitude" [ Rate.Sinusoid { amplitude = -0.1; period = 1.0; phase = 0.0 } ];
  invalid "zero period" [ Rate.Sinusoid { amplitude = 0.5; period = 0.0; phase = 0.0 } ];
  invalid "negative ramp target" [ Rate.Ramp { to_mult = -1.0; over = 1.0 } ];
  invalid "zero ramp duration" [ Rate.Ramp { to_mult = 2.0; over = 0.0 } ];
  invalid "zero-extent spike"
    [ Rate.Spike { at = 0.1; rise = 0.0; hold = 0.0; fall = 0.0; mult = 4.0 } ];
  invalid "negative spike mult"
    [ Rate.Spike { at = 0.1; rise = 0.1; hold = 0.1; fall = 0.1; mult = -1.0 } ];
  invalid "empty piecewise" [ Rate.Piecewise [] ];
  invalid "unsorted piecewise" [ Rate.Piecewise [ (0.2, 2.0); (0.1, 3.0) ] ];
  invalid "negative piecewise mult" [ Rate.Piecewise [ (0.1, -2.0) ] ];
  (match Rate.make ~burst:{ Rate.batch_mean = 0.5 } ~name:"b" [] with
  | _ -> Alcotest.fail "sub-1 burst mean accepted"
  | exception Invalid_argument _ -> ());
  (match Rate.make ~name:"" [] with
  | _ -> Alcotest.fail "empty name accepted"
  | exception Invalid_argument _ -> ());
  (* and the error names the profile *)
  match Rate.make ~name:"my-prof" [ Rate.Ramp { to_mult = 2.0; over = 0.0 } ] with
  | _ -> Alcotest.fail "bad ramp accepted"
  | exception Invalid_argument msg ->
      Alcotest.(check bool) "names the profile" true (contains msg "my-prof")

let test_rate_mult_math () =
  let fl = Alcotest.float 1e-9 in
  let spike =
    Rate.make ~name:"s" [ Rate.Spike { at = 0.2; rise = 0.1; hold = 0.2; fall = 0.1; mult = 5.0 } ]
  in
  Alcotest.(check fl) "before spike" 1.0 (Rate.mult_at spike ~t:0.1);
  Alcotest.(check fl) "mid-rise" 3.0 (Rate.mult_at spike ~t:0.25);
  Alcotest.(check fl) "hold" 5.0 (Rate.mult_at spike ~t:0.4);
  Alcotest.(check fl) "mid-fall" 3.0 (Rate.mult_at spike ~t:0.55);
  Alcotest.(check fl) "after spike" 1.0 (Rate.mult_at spike ~t:0.9);
  let ramp = Rate.make ~name:"r" [ Rate.Ramp { to_mult = 4.0; over = 1.0 } ] in
  Alcotest.(check fl) "ramp start" 1.0 (Rate.mult_at ramp ~t:0.0);
  Alcotest.(check fl) "ramp midpoint" 2.5 (Rate.mult_at ramp ~t:0.5);
  Alcotest.(check fl) "ramp held past end" 4.0 (Rate.mult_at ramp ~t:2.0);
  let steps = Rate.make ~name:"p" [ Rate.Piecewise [ (0.1, 2.0); (0.3, 0.5) ] ] in
  Alcotest.(check fl) "before first step" 1.0 (Rate.mult_at steps ~t:0.05);
  Alcotest.(check fl) "first step" 2.0 (Rate.mult_at steps ~t:0.2);
  Alcotest.(check fl) "second step held" 0.5 (Rate.mult_at steps ~t:9.0);
  (* a full-amplitude sinusoid touches zero at the trough, never below *)
  let sine = Rate.make ~name:"sin" [ Rate.Sinusoid { amplitude = 1.0; period = 1.0; phase = 0.0 } ] in
  Alcotest.(check fl) "sinusoid trough clamps at 0" 0.0 (Rate.mult_at sine ~t:0.75);
  Alcotest.(check fl) "sinusoid crest" 2.0 (Rate.mult_at sine ~t:0.25);
  (* composition multiplies term-wise; scale is a constant factor *)
  let both = Rate.compose spike ramp in
  Alcotest.(check fl) "compose multiplies" (5.0 *. 2.2) (Rate.mult_at both ~t:0.4);
  Alcotest.(check string) "compose names" "s+r" both.Rate.profile_name;
  let half = Rate.scale 0.5 ramp in
  Alcotest.(check fl) "scale by 0.5" 1.25 (Rate.mult_at half ~t:0.5);
  Alcotest.(check fl) "peak is the spike mult" 5.0 (Rate.peak_mult spike);
  Alcotest.(check fl) "peak of a product bounds" 20.0 (Rate.peak_mult both);
  (* the constant identity *)
  Alcotest.(check bool) "constant is constant" true (Rate.is_constant Rate.constant);
  Alcotest.(check bool) "explicit Constant terms too" true
    (Rate.is_constant (Rate.make ~name:"c" [ Rate.Constant; Rate.Constant ]));
  Alcotest.(check bool) "burst defeats constancy" false
    (Rate.is_constant (Rate.make ~burst:{ Rate.batch_mean = 3.0 } ~name:"c" []));
  Alcotest.(check bool) "spike is not constant" false (Rate.is_constant spike);
  Alcotest.(check fl) "constant mean" 1.0 (Rate.mean_mult Rate.constant ~duration:1.0);
  (* ramp 1 -> 4 over the whole window: mean 2.5 *)
  Alcotest.(check (Alcotest.float 1e-2)) "ramp mean" 2.5 (Rate.mean_mult ramp ~duration:1.0)

let all_terms_profile =
  Rate.make ~burst:{ Rate.batch_mean = 3.0 } ~name:"everything"
    [
      Rate.Constant;
      Rate.Sinusoid { amplitude = 0.4; period = 2.0; phase = 0.5 };
      Rate.Ramp { to_mult = 2.0; over = 1.5 };
      Rate.Spike { at = 0.3; rise = 0.05; hold = 0.2; fall = 0.15; mult = 4.0 };
      Rate.Piecewise [ (0.0, 1.0); (0.5, 1.5) ];
    ]

let test_rate_json_roundtrip () =
  let back = Rate.of_json (Rate.to_json all_terms_profile) in
  Alcotest.(check string) "name survives" "everything" back.Rate.profile_name;
  Alcotest.(check bool) "shape survives" true (back.Rate.shape = all_terms_profile.Rate.shape);
  Alcotest.(check bool) "burst survives" true (back.Rate.burst = all_terms_profile.Rate.burst);
  let path = Filename.temp_file "ditto_rate" ".json" in
  Rate.save ~path all_terms_profile;
  let loaded = Rate.load path in
  Sys.remove path;
  Alcotest.(check bool) "file roundtrip" true
    (loaded.Rate.shape = all_terms_profile.Rate.shape
    && loaded.Rate.burst = all_terms_profile.Rate.burst);
  (* unknown kinds are a parse error, not silent garbage *)
  let module J = Ditto_util.Jsonx in
  match
    Rate.of_json
      (J.Obj
         [
           ("name", J.Str "x");
           ("shape", J.List [ J.Obj [ ("kind", J.Str "meteor") ] ]);
         ])
  with
  | _ -> Alcotest.fail "unknown kind accepted"
  | exception J.Parse_error _ -> ()

(* {1 Canonical profiles} *)

let test_profile_canonical () =
  let fl = Alcotest.float 1e-9 in
  Alcotest.(check (list string))
    "the three scenarios"
    [ "flash-crowd"; "diurnal"; "ramp-to-saturation" ]
    Profile.names;
  Alcotest.(check (list string)) "canonical order matches names" Profile.names
    (List.map
       (fun (p : Rate.t) -> p.Rate.profile_name)
       (Profile.canonical ~duration:2.0));
  List.iter
    (fun name ->
      let p = Profile.by_name ~duration:2.0 name in
      Alcotest.(check string) "by_name finds it" name p.Rate.profile_name;
      Alcotest.(check bool) "canonical profiles are not constant" false (Rate.is_constant p))
    Profile.names;
  (match Profile.by_name ~duration:2.0 "tsunami" with
  | _ -> Alcotest.fail "unknown profile accepted"
  | exception Invalid_argument msg ->
      Alcotest.(check bool) "lists the known names" true (contains msg "flash-crowd"));
  (* phase boundaries scale with the duration *)
  let fc = Profile.flash_crowd ~duration:2.0 () in
  Alcotest.(check fl) "flash crowd quiet before onset" 1.0 (Rate.mult_at fc ~t:0.5);
  Alcotest.(check fl) "flash crowd peak 4x by default" 4.0 (Rate.peak_mult fc);
  Alcotest.(check fl) "holding at 45% of the run" 4.0 (Rate.mult_at fc ~t:0.9);
  Alcotest.(check fl) "receded by 70%" 1.0 (Rate.mult_at fc ~t:1.5);
  let rs = Profile.ramp_to_saturation ~duration:2.0 () in
  Alcotest.(check fl) "ramp hits 6x at 80%" 6.0 (Rate.mult_at rs ~t:1.6);
  let di = Profile.diurnal ~amplitude:0.5 ~duration:2.0 () in
  Alcotest.(check (Alcotest.float 1e-6)) "diurnal crest at quarter period" 1.5
    (Rate.mult_at di ~t:0.5)

(* {1 Arrival process} *)

let test_arrival_process () =
  (* Plain Poisson: mean gap = 1/rate, batches of one. *)
  let n = 20_000 in
  let rng = Rng.create 42 in
  let total = ref 0.0 in
  for _ = 1 to n do
    let a = Rate.next_arrival Rate.constant rng ~base_qps:1000.0 ~t:0.0 in
    Alcotest.(check int) "no burst: batch of one" 1 a.Rate.batch;
    total := !total +. a.Rate.gap
  done;
  let mean_gap = !total /. float_of_int n in
  Alcotest.(check bool)
    (Printf.sprintf "mean gap %.2e near 1ms" mean_gap)
    true
    (Float.abs (mean_gap -. 1e-3) /. 1e-3 < 0.05);
  (* a 4x multiplier quadruples the instantaneous rate *)
  let spike =
    Rate.make ~name:"s" [ Rate.Spike { at = 0.0; rise = 0.0; hold = 1.0; fall = 0.0; mult = 4.0 } ]
  in
  let total4 = ref 0.0 in
  for _ = 1 to n do
    total4 := !total4 +. (Rate.next_arrival spike rng ~base_qps:1000.0 ~t:0.5).Rate.gap
  done;
  let mean4 = !total4 /. float_of_int n in
  Alcotest.(check bool)
    (Printf.sprintf "4x mult quarters the gap (%.2e)" mean4)
    true
    (Float.abs (mean4 -. 0.25e-3) /. 0.25e-3 < 0.05);
  (* bursty arrivals preserve the offered rate: batch/gap ~ base_qps *)
  let bursty = Rate.make ~burst:{ Rate.batch_mean = 4.0 } ~name:"b" [] in
  let gaps = ref 0.0 and arrivals = ref 0 in
  for _ = 1 to n do
    let a = Rate.next_arrival bursty rng ~base_qps:1000.0 ~t:0.0 in
    Alcotest.(check bool) "batch at least one" true (a.Rate.batch >= 1);
    gaps := !gaps +. a.Rate.gap;
    arrivals := !arrivals + a.Rate.batch
  done;
  let offered = float_of_int !arrivals /. !gaps in
  Alcotest.(check bool)
    (Printf.sprintf "bursty offered rate preserved (%.0f qps)" offered)
    true
    (Float.abs (offered -. 1000.0) /. 1000.0 < 0.1);
  Alcotest.(check bool)
    (Printf.sprintf "mean batch near 4 (%.2f)" (float_of_int !arrivals /. float_of_int n))
    true
    (Float.abs ((float_of_int !arrivals /. float_of_int n) -. 4.0) < 0.4);
  (* same stream, same draws: the process is a pure function of the RNG *)
  let sample seed =
    let rng = Rng.create seed in
    List.init 100 (fun i ->
        Rate.next_arrival all_terms_profile rng ~base_qps:2000.0 ~t:(0.01 *. float_of_int i))
  in
  Alcotest.(check bool) "deterministic from the seed" true (sample 7 = sample 7);
  Alcotest.(check bool) "different seed, different draws" true (sample 7 <> sample 8)

(* {1 A small two-tier app under overload} *)

let make_block ~tier_index ~label n =
  let space = Layout.space ~tier_index ~heap_bytes:(1 lsl 20) ~shared_bytes:(1 lsl 16) in
  Block.make ~label ~code_base:(Layout.code_window space ~index:0)
    (List.init n (fun i ->
         Block.temp (Iform.by_name "ADD_GPR64_GPR64") ~dst:(i mod 8) ~srcs:[| (i + 1) mod 8 |]))

let surge_app () =
  let front_block = make_block ~tier_index:0 ~label:"front" 64 in
  let back_block = make_block ~tier_index:1 ~label:"back" 96 in
  let front _rng _req =
    [
      Spec.Compute (front_block, 3);
      Spec.Call { target = "back"; req_bytes = 128; resp_bytes = 256 };
      Spec.Compute (front_block, 2);
    ]
  in
  (* the back tier holds its worker ~150us per request, so a 2-worker
     tier saturates near 13k qps: the 8x crowd on a 2.5-4k base is
     genuinely past capacity while the pre-spike base stays healthy *)
  let back _rng _req =
    [
      Spec.Compute (back_block, 4);
      Spec.Syscall (Ditto_os.Syscall.Nanosleep { seconds = 1.5e-4 });
    ]
  in
  Spec.make ~name:"surge_app"
    [
      Spec.tier ~name:"front" ~workers:2 ~heap_bytes:(1 lsl 20) ~shared_bytes:(1 lsl 16)
        ~handler:front ();
      Spec.tier ~name:"back" ~workers:2 ~heap_bytes:(1 lsl 20) ~shared_bytes:(1 lsl 16)
        ~handler:back ();
    ]

let surge_load ?profile ?(qps = 2500.0) () =
  Service.load ~qps ~duration:0.5 ~open_loop:true ~client_timeout:0.02 ~client_retries:1
    ?profile ()

let surge_policy =
  Spec.autoscale ~min_replicas:1 ~max_replicas:3 ~target_queue:4.0 ~interval:0.02
    ~cooldown:0.04 ()

let run_surge ?profile ?(resilience = Spec.resilient ~queue_bound:16 ()) ?autoscale
    ?(qps = 2500.0) () =
  let app =
    let armoured = Spec.with_resilience resilience (surge_app ()) in
    match autoscale with None -> armoured | Some p -> Spec.with_autoscale p armoured
  in
  let out =
    Runner.run (Runner.config ~requests:40 Platform.a) ~load:(surge_load ?profile ~qps ()) app
  in
  out.Runner.service

let service_fingerprint (r : Service.result) =
  ( ( r.Service.completed,
      r.Service.errors,
      r.Service.client_timeouts,
      r.Service.client_retries ),
    Array.to_list r.Service.latency_raw,
    r.Service.scale_events,
    List.map
      (fun (o : Service.tier_obs) ->
        ( o.Service.obs_name,
          ( o.Service.obs_timeouts,
            o.Service.obs_retries,
            o.Service.obs_shed,
            o.Service.obs_degraded,
            o.Service.obs_failures,
            o.Service.obs_replicas ) ))
      r.Service.tiers )

let test_constant_profile_bit_identity () =
  (* The tentpole invariant: a [None] profile, [Rate.constant] and an
     explicit all-Constant shape must produce byte-identical runs — the
     profile machinery is provably off on those paths. *)
  let bare = run_surge () in
  let const = run_surge ~profile:Rate.constant () in
  let explicit = run_surge ~profile:(Rate.make ~name:"c" [ Rate.Constant ]) () in
  Alcotest.(check bool) "constant profile = no profile" true
    (service_fingerprint bare = service_fingerprint const);
  Alcotest.(check bool) "explicit Constant terms too" true
    (service_fingerprint bare = service_fingerprint explicit);
  (* and a non-constant profile actually changes the run *)
  let surged = run_surge ~profile:(Profile.flash_crowd ~duration:0.5 ()) () in
  Alcotest.(check bool) "flash crowd perturbs the run" true
    (service_fingerprint bare <> service_fingerprint surged)

let test_autoscaler_scales_out () =
  let r =
    run_surge
      ~profile:(Profile.flash_crowd ~mult:8.0 ~duration:0.5 ())
      ~autoscale:surge_policy ~qps:4000.0 ()
  in
  let events = r.Service.scale_events in
  Alcotest.(check bool)
    (Printf.sprintf "scale events fired (%d)" (List.length events))
    true (events <> []);
  let outs =
    List.filter (fun (e : Service.scale_event) -> e.Service.se_to > e.Service.se_from) events
  in
  Alcotest.(check bool) "at least one scale-out" true (outs <> []);
  List.iter
    (fun (e : Service.scale_event) ->
      Alcotest.(check bool) "replicas within policy bounds" true
        (e.Service.se_to >= 1 && e.Service.se_to <= 3);
      Alcotest.(check bool) "every event moves the count" true
        (e.Service.se_to <> e.Service.se_from);
      Alcotest.(check bool) "tier named" true
        (List.mem e.Service.se_tier [ "front"; "back" ]))
    events;
  (* chronological, and cooldown-separated per tier *)
  let rec check_order = function
    | (a : Service.scale_event) :: (b :: _ as rest) ->
        Alcotest.(check bool) "chronological" true (a.Service.se_at <= b.Service.se_at);
        check_order rest
    | _ -> ()
  in
  check_order events;
  List.iter
    (fun tier ->
      let mine =
        List.filter (fun (e : Service.scale_event) -> e.Service.se_tier = tier) events
      in
      let rec gaps = function
        | (a : Service.scale_event) :: (b :: _ as rest) ->
            Alcotest.(check bool)
              (Printf.sprintf "cooldown respected on %s (%.3f -> %.3f)" tier a.Service.se_at
                 b.Service.se_at)
              true
              (b.Service.se_at -. a.Service.se_at >= 0.04 -. 1e-9);
            gaps rest
        | _ -> ()
      in
      gaps mine)
    [ "front"; "back" ];
  (* teardown replica counts are live and inside the bounds *)
  List.iter
    (fun (o : Service.tier_obs) ->
      Alcotest.(check bool) "teardown replicas in bounds" true
        (o.Service.obs_replicas >= 1 && o.Service.obs_replicas <= 3))
    r.Service.tiers;
  (* without a policy the log is empty and every tier reports one replica *)
  let flat = run_surge ~profile:(Profile.flash_crowd ~duration:0.5 ()) () in
  Alcotest.(check bool) "no policy, no events" true (flat.Service.scale_events = []);
  List.iter
    (fun (o : Service.tier_obs) ->
      Alcotest.(check int) "single replica without policy" 1 o.Service.obs_replicas)
    flat.Service.tiers

let test_autoscaler_deterministic () =
  let go () =
    run_surge
      ~profile:(Profile.flash_crowd ~mult:8.0 ~duration:0.5 ())
      ~autoscale:surge_policy ~qps:4000.0 ()
  in
  let a = go () and b = go () in
  Alcotest.(check bool) "identical scale-event logs" true
    (a.Service.scale_events = b.Service.scale_events);
  Alcotest.(check bool) "identical fingerprints" true
    (service_fingerprint a = service_fingerprint b)

let test_degraded_service () =
  (* Arm degradation with a low backlog bar: under the flash crowd some
     requests must be served degraded; without the knob, none are. *)
  let degrading =
    Spec.resilient ~queue_bound:64 ~degrade:(Spec.degraded ~queue:2 ()) ()
  in
  let profile = Profile.flash_crowd ~mult:8.0 ~duration:0.5 () in
  let soft = run_surge ~profile ~resilience:degrading ~qps:4000.0 () in
  let hard = run_surge ~profile ~qps:4000.0 () in
  let degraded r =
    List.fold_left (fun acc (o : Service.tier_obs) -> acc + o.Service.obs_degraded) 0
      r.Service.tiers
  in
  Alcotest.(check bool)
    (Printf.sprintf "degraded mode served requests (%d)" (degraded soft))
    true
    (degraded soft > 0);
  Alcotest.(check int) "off by default" 0 (degraded hard)

let test_shedding_under_surge () =
  let shed r =
    List.fold_left (fun acc (o : Service.tier_obs) -> acc + o.Service.obs_shed) 0
      r.Service.tiers
  in
  let surged =
    run_surge
      ~profile:(Profile.flash_crowd ~mult:8.0 ~duration:0.5 ())
      ~resilience:(Spec.resilient ~queue_bound:8 ())
      ~qps:4000.0 ()
  in
  Alcotest.(check bool)
    (Printf.sprintf "flash crowd sheds (%d)" (shed surged))
    true (shed surged > 0)

(* {1 Surge scorecard} *)

let clone_lazy =
  lazy
    (let app = surge_app () in
     let load = surge_load () in
     (load, Pipeline.clone ~requests:80 ~profile_requests:60 ~platform:Platform.a ~load app))

let test_surge_scorecard () =
  let load, r = Lazy.force clone_lazy in
  let profile = Profile.flash_crowd ~mult:8.0 ~duration:load.Service.duration () in
  let run ?config_of () =
    Pipeline.validate_under ?config_of ~platform:Platform.a ~load
      ~resilience:(Spec.resilient ~queue_bound:8 ())
      ~autoscale:surge_policy ~profile ~label:"surge-test" r
  in
  (* without telemetry the scorecard refuses loudly *)
  (match Surge.of_chaos ~app:"surge_app" (run ()) with
  | _ -> Alcotest.fail "scorecard built without telemetry"
  | exception Invalid_argument _ -> ());
  let ch = run ~config_of:(fun p -> Runner.config ~timeline:true p) () in
  let sc = Surge.of_chaos ~app:"surge_app" ch in
  Alcotest.(check string) "scenario is the profile name" "flash-crowd" sc.Surge.scenario;
  (* whole-run shed fractions are raw fractions; the gap is in points *)
  let frac_ok f = f >= 0.0 && f <= 1.0 in
  Alcotest.(check bool) "actual shed fraction sane" true (frac_ok sc.Surge.shed_fraction_actual);
  Alcotest.(check bool) "clone shed fraction sane" true (frac_ok sc.Surge.shed_fraction_clone);
  Alcotest.(check (Alcotest.float 1e-9)) "err_pp is the absolute gap in points"
    (100.0 *. Float.abs (sc.Surge.shed_fraction_actual -. sc.Surge.shed_fraction_clone))
    sc.Surge.shed_fraction_err_pp;
  Alcotest.(check bool) "replica trajectory err in [0,100]" true
    (sc.Surge.replica_traj_err_pp >= 0.0 && sc.Surge.replica_traj_err_pp <= 100.0);
  Alcotest.(check bool) "onset err non-negative" true (sc.Surge.saturation_onset_err_s >= 0.0);
  (* the queue bound of 8 under an 8x crowd forces both sides to shed *)
  Alcotest.(check bool) "actual shed" true (sc.Surge.shed_total_actual > 0);
  Alcotest.(check bool) "clone shed" true (sc.Surge.shed_total_clone > 0);
  (match sc.Surge.saturation_onset_actual with
  | Some at -> Alcotest.(check bool) "onset inside the run" true (at >= 0.0 && at <= 0.5)
  | None -> Alcotest.fail "actual side shed but reports no onset");
  (* the flat keys are exactly the gated family, under app/scenario *)
  let keys = List.map fst (Surge.flat sc) in
  List.iter
    (fun metric ->
      let key = "surge_app/flash-crowd/" ^ metric in
      Alcotest.(check bool) ("flat has " ^ key) true (List.mem key keys))
    [
      "worst_window_err_pct";
      "mean_window_err_pct";
      "reconverge_seconds";
      "shed_fraction_err_pp";
      "worst_shed_window_err_pp";
      "replica_traj_err_pp";
      "saturation_onset_err_s";
    ];
  Alcotest.(check int) "and nothing else" 7 (List.length keys)

let test_scenario_name () =
  let plan = Plan.make ~name:"kill" [] in
  let prof = Profile.flash_crowd ~duration:1.0 () in
  Alcotest.(check string) "steady" "steady" (Pipeline.scenario_name ());
  Alcotest.(check string) "plan only" "kill" (Pipeline.scenario_name ~plan ());
  Alcotest.(check string) "profile only" "flash-crowd" (Pipeline.scenario_name ~surge:prof ());
  Alcotest.(check string) "both" "kill+flash-crowd"
    (Pipeline.scenario_name ~plan ~surge:prof ())

let () =
  Alcotest.run "surge"
    [
      ( "rate",
        [
          Alcotest.test_case "shape validation" `Quick test_rate_validation;
          Alcotest.test_case "multiplier algebra" `Quick test_rate_mult_math;
          Alcotest.test_case "json roundtrip" `Quick test_rate_json_roundtrip;
        ] );
      ( "profiles",
        [
          Alcotest.test_case "canonical profiles" `Quick test_profile_canonical;
          Alcotest.test_case "arrival process" `Quick test_arrival_process;
          Alcotest.test_case "scenario naming" `Quick test_scenario_name;
        ] );
      ( "service",
        [
          Alcotest.test_case "constant profile bit-identical" `Slow
            test_constant_profile_bit_identity;
          Alcotest.test_case "autoscaler scales out" `Slow test_autoscaler_scales_out;
          Alcotest.test_case "autoscaler deterministic" `Slow test_autoscaler_deterministic;
          Alcotest.test_case "graceful degradation" `Slow test_degraded_service;
          Alcotest.test_case "shedding under surge" `Slow test_shedding_under_surge;
        ] );
      ( "scorecard",
        [ Alcotest.test_case "surge fidelity" `Slow test_surge_scorecard ] );
    ]
