(* The chaos layer: fault-plan validation and JSON, the circuit-breaker
   state machine at pinned thresholds, deterministic fault injection
   (bit-identical degraded runs across pool sizes), resilience mechanisms
   moving latency/errors in the expected direction, and fidelity under
   failure — the clone degrading like the original under the canonical
   plans. *)
open Ditto_app
open Ditto_isa
module Plan = Ditto_fault.Plan
module Breaker = Ditto_fault.Breaker
module Pipeline = Ditto_core.Pipeline
module Scorecard = Ditto_report.Scorecard
module Pool = Ditto_util.Pool
module Platform = Ditto_uarch.Platform
module Stats = Ditto_util.Stats

(* {1 Plan} *)

let crash ?(at = 0.1) ?(down_for = 0.1) tier =
  { Plan.at; tier; kind = Plan.Crash { down_for } }

let test_plan_validation () =
  let invalid msg events =
    match Plan.make ~name:"bad" events with
    | _ -> Alcotest.failf "%s accepted" msg
    | exception Invalid_argument _ -> ()
  in
  invalid "negative at" [ crash ~at:(-0.1) "a" ];
  invalid "non-positive down_for" [ crash ~down_for:0.0 "a" ];
  invalid "factor below 1"
    [ { Plan.at = 0.1; tier = "a"; kind = Plan.Slowdown { factor = 0.5; lasts = 0.1 } } ];
  invalid "drop above 1"
    [
      {
        Plan.at = 0.1;
        tier = "a";
        kind = Plan.Link { add_latency = 0.0; drop = 1.5; lasts = 0.1 };
      };
    ];
  invalid "negative partition"
    [ { Plan.at = 0.1; tier = "a"; kind = Plan.Partition { lasts = -1.0 } } ];
  (* events are kept sorted by [at] *)
  let p = Plan.make ~name:"ok" [ crash ~at:0.3 "a"; crash ~at:0.1 "b" ] in
  Alcotest.(check (list (float 1e-12))) "sorted by at" [ 0.1; 0.3 ]
    (List.map (fun (e : Plan.event) -> e.Plan.at) p.Plan.events);
  (* tier names are checked against the spec, with "client" reserved *)
  Plan.validate ~tiers:[ "a"; "b" ] p;
  Plan.validate ~tiers:[ "a" ] (Plan.make ~name:"c" [ crash Plan.client_tier ]);
  let contains hay needle =
    let h = String.length hay and n = String.length needle in
    let rec go i = i + n <= h && (String.sub hay i n = needle || go (i + 1)) in
    go 0
  in
  match Plan.validate ~tiers:[ "a" ] p with
  | () -> Alcotest.fail "unknown tier accepted"
  | exception Invalid_argument msg ->
      Alcotest.(check bool) "names the tier" true (contains msg "b")

let test_plan_late_events () =
  (* An event at/past the load duration can never fire. The default is a
     stderr warning (validate still returns unit); under [~strict:true]
     the same plan is rejected with a message naming the plan, the tier
     and both times. *)
  let contains hay needle =
    let h = String.length hay and n = String.length needle in
    let rec go i = i + n <= h && (String.sub hay i n = needle || go (i + 1)) in
    go 0
  in
  let late = Plan.make ~name:"late" [ crash ~at:0.1 "a"; crash ~at:0.6 "b" ] in
  (* without a duration nothing is late *)
  Plan.validate ~tiers:[ "a"; "b" ] late;
  Plan.validate ~strict:true ~tiers:[ "a"; "b" ] late;
  (* warn-only: still unit *)
  Plan.validate ~duration:0.5 ~tiers:[ "a"; "b" ] late;
  (* exactly at the duration boundary is late (the run has already ended) *)
  (match Plan.validate ~duration:0.6 ~strict:true ~tiers:[ "a"; "b" ] late with
  | () -> Alcotest.fail "event at t = duration accepted under strict"
  | exception Invalid_argument msg ->
      Alcotest.(check bool) "names the plan" true (contains msg "late");
      Alcotest.(check bool) "names the tier" true (contains msg "b");
      Alcotest.(check bool) "says never fire" true (contains msg "never fire"));
  (* strictly inside the window passes even under strict *)
  Plan.validate ~duration:0.61 ~strict:true ~tiers:[ "a"; "b" ] late

let all_kinds_plan =
  Plan.make ~name:"everything"
    [
      crash ~at:0.05 "a";
      { Plan.at = 0.1; tier = "b"; kind = Plan.Slowdown { factor = 2.5; lasts = 0.2 } };
      { Plan.at = 0.15; tier = "a"; kind = Plan.Link { add_latency = 1e-4; drop = 0.1; lasts = 0.3 } };
      { Plan.at = 0.2; tier = Plan.client_tier; kind = Plan.Partition { lasts = 0.05 } };
    ]

let test_plan_json_roundtrip () =
  let back = Plan.of_json (Plan.to_json all_kinds_plan) in
  Alcotest.(check string) "name survives" "everything" back.Plan.plan_name;
  Alcotest.(check bool) "events survive" true (back.Plan.events = all_kinds_plan.Plan.events);
  let path = Filename.temp_file "ditto_plan" ".json" in
  Plan.save ~path all_kinds_plan;
  let loaded = Plan.load path in
  Sys.remove path;
  Alcotest.(check bool) "file roundtrip" true (loaded.Plan.events = all_kinds_plan.Plan.events);
  (* unknown kinds are a parse error, not silent garbage *)
  let module J = Ditto_util.Jsonx in
  match
    Plan.of_json
      (J.Obj
         [
           ("name", J.Str "x");
           ( "events",
             J.List [ J.Obj [ ("at", J.Num 0.1); ("tier", J.Str "a"); ("kind", J.Str "meteor") ] ]
           );
         ])
  with
  | _ -> Alcotest.fail "unknown kind accepted"
  | exception J.Parse_error _ -> ()

let test_plan_canonical () =
  let tiers = [ "front"; "mid"; "back" ] in
  let plans = Plan.canonical ~duration:1.0 ~tiers in
  Alcotest.(check (list string))
    "the three scenarios"
    [ "kill-mid-tier"; "brownout-leaf"; "flaky-link" ]
    (List.map (fun (p : Plan.t) -> p.Plan.plan_name) plans);
  List.iter (fun p -> Plan.validate ~tiers p) plans;
  (* all events fit inside the load window *)
  List.iter
    (fun (p : Plan.t) ->
      List.iter
        (fun (e : Plan.event) ->
          Alcotest.(check bool) "event inside run" true (e.Plan.at >= 0.0 && e.Plan.at < 1.0))
        p.Plan.events)
    plans

(* {1 Breaker: pinned thresholds} *)

let breaker_config =
  { Breaker.failure_threshold = 0.5; window = 4; cooldown = 1.0; half_open_probes = 2 }

let check_state msg expected b =
  let show = function
    | Breaker.Closed -> "closed"
    | Breaker.Open -> "open"
    | Breaker.Half_open -> "half-open"
  in
  Alcotest.(check string) msg (show expected) (show (Breaker.state b))

let test_breaker_trips_at_threshold () =
  let b = Breaker.create ~config:breaker_config () in
  (* three failures: window (4) not yet full, so no trip even at 100% *)
  for _ = 1 to 3 do
    Breaker.record b ~now:0.0 ~ok:false
  done;
  check_state "below window" Breaker.Closed b;
  (* fourth outcome fills the window at 75% >= 50%: trips now *)
  Breaker.record b ~now:0.1 ~ok:true;
  check_state "tripped when window full" Breaker.Open b;
  Alcotest.(check int) "one transition" 1 (Breaker.transitions b);
  (* exactly at the threshold trips too: 2 failures in 4 *)
  let b2 = Breaker.create ~config:breaker_config () in
  List.iter (fun ok -> Breaker.record b2 ~now:0.0 ~ok) [ true; false; true; false ];
  check_state "50% = threshold trips" Breaker.Open b2;
  (* below it does not: 1 failure in 4, then the window keeps sliding *)
  let b3 = Breaker.create ~config:breaker_config () in
  List.iter (fun ok -> Breaker.record b3 ~now:0.0 ~ok) [ true; false; true; true; true ];
  check_state "25% stays closed" Breaker.Closed b3

let test_breaker_open_half_open_cycle () =
  let b = Breaker.create ~config:breaker_config () in
  for _ = 1 to 4 do
    Breaker.record b ~now:2.0 ~ok:false
  done;
  check_state "open" Breaker.Open b;
  Alcotest.(check bool) "fast-fails during cooldown" false (Breaker.allow b ~now:2.5);
  Alcotest.(check bool) "still failing just before" false (Breaker.allow b ~now:2.999);
  (* cooldown (1s) elapsed: first allow flips to half-open and admits *)
  Alcotest.(check bool) "probe admitted" true (Breaker.allow b ~now:3.0);
  check_state "half-open" Breaker.Half_open b;
  Alcotest.(check bool) "second probe admitted" true (Breaker.allow b ~now:3.01);
  Alcotest.(check bool) "probe budget (2) exhausted" false (Breaker.allow b ~now:3.02);
  (* both probes succeed: closed again *)
  Breaker.record b ~now:3.05 ~ok:true;
  check_state "one success not enough" Breaker.Half_open b;
  Breaker.record b ~now:3.06 ~ok:true;
  check_state "probes close it" Breaker.Closed b;
  Alcotest.(check int) "open -> half-open -> closed" 3 (Breaker.transitions b)

let test_breaker_probe_failure_reopens () =
  let b = Breaker.create ~config:breaker_config () in
  for _ = 1 to 4 do
    Breaker.record b ~now:0.0 ~ok:false
  done;
  Alcotest.(check bool) "probe admitted" true (Breaker.allow b ~now:1.5);
  Breaker.record b ~now:1.6 ~ok:false;
  check_state "probe failure reopens" Breaker.Open b;
  (* the cooldown restarts from the re-open *)
  Alcotest.(check bool) "cooldown restarted" false (Breaker.allow b ~now:2.0);
  Alcotest.(check bool) "probing again later" true (Breaker.allow b ~now:2.7)

let test_breaker_probe_budget_exhaustion () =
  (* Once the half-open probe budget is spent, no amount of elapsed time
     re-admits traffic: only a recorded outcome moves the state machine.
     The cooldown clock governs Open -> Half_open, not Half_open itself. *)
  let b = Breaker.create ~config:breaker_config () in
  for _ = 1 to 4 do
    Breaker.record b ~now:0.0 ~ok:false
  done;
  Alcotest.(check bool) "probe 1 admitted" true (Breaker.allow b ~now:1.0);
  Alcotest.(check bool) "probe 2 admitted" true (Breaker.allow b ~now:1.0);
  Alcotest.(check bool) "budget spent" false (Breaker.allow b ~now:1.0);
  (* far past another cooldown interval: still half-open, still refusing *)
  Alcotest.(check bool) "time does not refill the budget" false (Breaker.allow b ~now:100.0);
  check_state "stuck half-open until probes resolve" Breaker.Half_open b;
  (* one success is not enough to close, and does NOT refill the budget *)
  Breaker.record b ~now:100.1 ~ok:true;
  check_state "one of two probes back" Breaker.Half_open b;
  Alcotest.(check bool) "still no extra admissions" false (Breaker.allow b ~now:100.2);
  (* the second success closes it and traffic flows freely again *)
  Breaker.record b ~now:100.3 ~ok:true;
  check_state "second probe closes" Breaker.Closed b;
  Alcotest.(check bool) "closed admits everything" true (Breaker.allow b ~now:100.4)

let test_breaker_reopen_race () =
  (* Two probes in flight; the first comes back a failure and re-opens
     the breaker. The second probe's success then arrives late — it must
     be dropped on the floor: no state change, no transition count, and
     no corruption of the fresh cooldown window. *)
  let b = Breaker.create ~config:breaker_config () in
  for _ = 1 to 4 do
    Breaker.record b ~now:0.0 ~ok:false
  done;
  Alcotest.(check bool) "probe A admitted" true (Breaker.allow b ~now:1.0);
  Alcotest.(check bool) "probe B admitted" true (Breaker.allow b ~now:1.0);
  Breaker.record b ~now:1.1 ~ok:false;
  check_state "probe A failure re-opens" Breaker.Open b;
  let transitions_after_reopen = Breaker.transitions b in
  (* probe B's success lands after the re-open: ignored *)
  Breaker.record b ~now:1.2 ~ok:true;
  check_state "late success ignored while open" Breaker.Open b;
  Alcotest.(check int) "no transition from the stale probe" transitions_after_reopen
    (Breaker.transitions b);
  (* the new cooldown runs from the re-open (1.1), not the stale record *)
  Alcotest.(check bool) "cooldown from re-open holds" false (Breaker.allow b ~now:2.05);
  Alcotest.(check bool) "probing resumes after it" true (Breaker.allow b ~now:2.15);
  check_state "half-open again" Breaker.Half_open b;
  (* and a full clean probe round still closes it: the stale success did
     not pre-count toward the fresh probe quorum *)
  Alcotest.(check bool) "second probe of the new round" true (Breaker.allow b ~now:2.2);
  Breaker.record b ~now:2.3 ~ok:true;
  check_state "one fresh success is not quorum" Breaker.Half_open b;
  Breaker.record b ~now:2.4 ~ok:true;
  check_state "fresh quorum closes" Breaker.Closed b

let test_breaker_bad_config_rejected () =
  let bad msg config =
    match Breaker.create ~config () with
    | _ -> Alcotest.failf "%s accepted" msg
    | exception Invalid_argument _ -> ()
  in
  bad "zero threshold" { breaker_config with Breaker.failure_threshold = 0.0 };
  bad "threshold above 1" { breaker_config with Breaker.failure_threshold = 1.5 };
  bad "zero window" { breaker_config with Breaker.window = 0 };
  bad "negative cooldown" { breaker_config with Breaker.cooldown = -1.0 };
  bad "zero probes" { breaker_config with Breaker.half_open_probes = 0 }

(* {1 Injector on a bare engine}

   No service run: the plan is armed on an empty engine, and callbacks at
   the midpoint of every interval between two window edges read the tier
   handles and call two links. The handles and links are taken before
   [arm], so a handle that copied the state instead of sharing it reads
   "healthy" throughout and fails. *)

module Injector = Ditto_fault.Injector
module Engine = Ditto_sim.Engine
module Socket = Ditto_net.Socket

let verdict_name = function
  | Socket.Drop -> "drop"
  | Socket.Delay d -> Printf.sprintf "delay %h" d
  | Socket.Deliver -> "deliver"

type injector_trace = {
  states : string list;  (* one line per midpoint *)
  late : string;  (* back->client verdicts in the last link window *)
  out_drops : int;  (* drops seen on back->client *)
  in_drops : int;  (* drops seen on front->back *)
  charged : int * int * int;  (* [Injector.drops] of front, back, client *)
  total : int;
}

(* [extra] more back->client calls once both overlapping link windows have
   ended: they must draw no coin, so the last window's verdicts do not
   depend on [extra]. *)
let injector_trace ~extra =
  let ev at tier kind = { Plan.at; tier; kind } in
  let plan =
    Plan.make ~name:"unit"
      [
        crash ~at:0.1 ~down_for:0.4 "front";
        crash ~at:0.2 ~down_for:0.1 "front";
        ev 0.15 "back" (Plan.Slowdown { factor = 1.2; lasts = 0.2 });
        ev 0.25 "back" (Plan.Slowdown { factor = 1.7; lasts = 0.2 });
        ev 0.6 "back" (Plan.Link { add_latency = 2e-4; drop = 0.3; lasts = 0.2 });
        ev 0.7 "back" (Plan.Link { add_latency = 3e-4; drop = 0.1; lasts = 0.2 });
        ev 1.0 "front" (Plan.Partition { lasts = 0.1 });
        ev 1.2 "back" (Plan.Link { add_latency = 0.0; drop = 0.5; lasts = 0.1 });
      ]
  in
  let engine = Engine.create () in
  let inj = Injector.create ~engine ~seed:11 plan in
  let front = Injector.tier inj "front" and back = Injector.tier inj "back" in
  let out = Injector.disruptor inj ~src:"back" ~dst:Plan.client_tier in
  let into = Injector.disruptor inj ~src:"front" ~dst:"back" in
  Injector.arm inj ~at:0.0;
  let states = ref [] and late = ref "" and out_drops = ref 0 and in_drops = ref 0 in
  let call link drops =
    let v = link ~bytes:64 in
    if v = Socket.Drop then incr drops;
    verdict_name v
  in
  let verdicts link drops =
    String.concat "," (List.sort_uniq compare (List.init 200 (fun _ -> call link drops)))
  in
  List.iter
    (fun at ->
      Engine.schedule engine at (fun () ->
          let line =
            Printf.sprintf "%.3f front %b %h back %b %h | out %s | in %s" at (Injector.up front)
              (Injector.slow front) (Injector.up back) (Injector.slow back)
              (verdicts out out_drops) (verdicts into in_drops)
          in
          states := line :: !states;
          if at = 0.95 then for _ = 1 to extra do ignore (call out out_drops) done))
    [
      0.05; 0.125; 0.175; 0.225; 0.275; 0.325; 0.4; 0.475; 0.55; 0.65; 0.75; 0.85; 0.95; 1.05;
      1.15;
    ];
  Engine.schedule engine 1.25 (fun () ->
      late :=
        String.concat ""
          (List.init 64 (fun _ -> if call out out_drops = "drop" then "x" else ".")));
  Engine.run engine;
  {
    states = List.rev !states;
    late = !late;
    out_drops = !out_drops;
    in_drops = !in_drops;
    charged =
      (Injector.drops inj "front", Injector.drops inj "back", Injector.drops inj Plan.client_tier);
    total = Injector.total_drops inj;
  }

let test_injector_windows () =
  let r = injector_trace ~extra:0 in
  let delay d = Printf.sprintf "delay %h" d in
  let line at front_up back_slow out into =
    Printf.sprintf "%.3f front %b %h back true %h | out %s | in %s" at front_up 1.0 back_slow out
      into
  in
  let healthy at front_up back_slow = line at front_up back_slow "deliver" "deliver" in
  let lossy d = delay d ^ ",drop" in
  Alcotest.(check (list string))
    "handles and verdicts between every pair of window edges"
    [
      healthy 0.05 true 1.0;
      (* the outer crash *)
      healthy 0.125 false 1.0;
      (* the first slowdown *)
      healthy 0.175 false 1.2;
      (* the nested crash *)
      healthy 0.225 false 1.2;
      (* both slowdowns *)
      healthy 0.275 false (1.7 *. 1.2);
      (* the nested crash ends, the outer one still holds *)
      healthy 0.325 false (1.7 *. 1.2);
      (* the first slowdown ends before the second: dividing its factor
         back out would leave neither 1.7 here nor 1.0 below *)
      healthy 0.4 false 1.7;
      healthy 0.475 false 1.0;
      healthy 0.55 true 1.0;
      (* link events on back: the first, both, the second; a link is hit
         from either end *)
      line 0.65 true 1.0 (lossy 2e-4) (lossy 2e-4);
      line 0.75 true 1.0 (lossy (3e-4 +. 2e-4)) (lossy (3e-4 +. 2e-4));
      line 0.85 true 1.0 (lossy 3e-4) (lossy 3e-4);
      healthy 0.95 true 1.0;
      (* front partitioned: everything it sends is dropped *)
      line 1.05 true 1.0 "deliver" "drop";
      healthy 1.15 true 1.0;
    ]
    r.states;
  let front, back, client = r.charged in
  Alcotest.(check int) "front charged with front->back drops" r.in_drops front;
  Alcotest.(check int) "back charged with back->client drops" r.out_drops back;
  Alcotest.(check int) "a destination is not charged" 0 client;
  Alcotest.(check int) "total" (r.in_drops + r.out_drops) r.total;
  Alcotest.(check bool) "the last window drops and delivers" true
    (String.contains r.late 'x' && String.contains r.late '.');
  (* Once the overlapping link events have ended, the drop probability is
     exactly 0.0 again: calls made then draw no coin. *)
  let busy = injector_trace ~extra:1000 in
  Alcotest.(check string) "no coin drawn after the link windows" r.late busy.late;
  Alcotest.(check (list string)) "same states" r.states busy.states

(* {1 A small two-tier app for service-level chaos tests} *)

let make_block ~tier_index ~label n =
  let space = Layout.space ~tier_index ~heap_bytes:(1 lsl 20) ~shared_bytes:(1 lsl 16) in
  Block.make ~label ~code_base:(Layout.code_window space ~index:0)
    (List.init n (fun i ->
         Block.temp (Iform.by_name "ADD_GPR64_GPR64") ~dst:(i mod 8) ~srcs:[| (i + 1) mod 8 |]))

let chaos_app () =
  let front_block = make_block ~tier_index:0 ~label:"front" 64 in
  let back_block = make_block ~tier_index:1 ~label:"back" 96 in
  let front _rng _req =
    [
      Spec.Compute (front_block, 3);
      Spec.Call { target = "back"; req_bytes = 128; resp_bytes = 256 };
      Spec.Compute (front_block, 2);
    ]
  in
  let back _rng _req = [ Spec.Compute (back_block, 4) ] in
  Spec.make ~name:"chaos_app"
    [
      Spec.tier ~name:"front" ~workers:2 ~heap_bytes:(1 lsl 20) ~shared_bytes:(1 lsl 16)
        ~handler:front ();
      Spec.tier ~name:"back" ~workers:2 ~heap_bytes:(1 lsl 20) ~shared_bytes:(1 lsl 16)
        ~handler:back ();
    ]

let chaos_load ?(client_timeout = 0.02) ?(client_retries = 1) () =
  Service.load ~qps:2500.0 ~duration:0.5 ~client_timeout ~client_retries ()

let run_armoured ?fault_plan ?(resilience = Spec.resilient ()) ?load spec =
  let load = match load with Some l -> l | None -> chaos_load () in
  let cfg = Runner.config ?fault_plan ~requests:40 Platform.a in
  Runner.run cfg ~load (Spec.with_resilience resilience spec)

(* {1 Deterministic injection} *)

let service_fingerprint (r : Service.result) =
  ( ( r.Service.completed,
      r.Service.errors,
      r.Service.client_timeouts,
      r.Service.client_retries ),
    Array.to_list r.Service.latency_raw,
    List.map
      (fun (o : Service.tier_obs) ->
        ( o.Service.obs_name,
          ( o.Service.obs_timeouts,
            o.Service.obs_retries,
            o.Service.obs_shed,
            o.Service.obs_failures,
            o.Service.obs_breaker_transitions,
            o.Service.obs_link_drops ) ))
      r.Service.tiers )

let clone_lazy =
  lazy
    (let app = chaos_app () in
     let load = chaos_load () in
     (load, Pipeline.clone ~requests:80 ~profile_requests:60 ~platform:Platform.a ~load app))

let validate_under_with ~pool_size plan =
  let load, r = Lazy.force clone_lazy in
  let pool = Pool.create ~size:pool_size () in
  Fun.protect
    ~finally:(fun () -> Pool.shutdown pool)
    (fun () ->
      Pipeline.validate_under ~pool ~platform:Platform.a ~load ~plan
        ~label:plan.Plan.plan_name r)

let test_chaos_determinism_across_pools () =
  let _, r = Lazy.force clone_lazy in
  let tiers = List.map (fun (t : Spec.tier) -> t.Spec.tier_name) r.Pipeline.original.Spec.tiers in
  let plan = List.hd (Plan.canonical ~duration:0.5 ~tiers) in
  let seq = validate_under_with ~pool_size:1 plan in
  let par = validate_under_with ~pool_size:3 plan in
  let again = validate_under_with ~pool_size:3 plan in
  Alcotest.(check bool) "actual side bit-identical (1 vs 3 domains)" true
    (service_fingerprint seq.Pipeline.actual_service
    = service_fingerprint par.Pipeline.actual_service);
  Alcotest.(check bool) "synthetic side bit-identical (1 vs 3 domains)" true
    (service_fingerprint seq.Pipeline.synthetic_service
    = service_fingerprint par.Pipeline.synthetic_service);
  Alcotest.(check bool) "repeat run bit-identical" true
    (service_fingerprint par.Pipeline.actual_service
    = service_fingerprint again.Pipeline.actual_service);
  (* the plan actually did something: the degraded run saw faults *)
  let faults (r : Service.result) =
    List.fold_left
      (fun acc (o : Service.tier_obs) ->
        acc + o.Service.obs_timeouts + o.Service.obs_shed + o.Service.obs_link_drops
        + o.Service.obs_failures)
      (* client-side evidence counts too *)
      (r.Service.errors + r.Service.client_timeouts + r.Service.client_retries)
      r.Service.tiers
  in
  Alcotest.(check bool) "faults observed" true (faults seq.Pipeline.actual_service > 0)

(* {1 Resilience direction} *)

let test_brownout_raises_tail_latency () =
  let app = chaos_app () in
  let plan =
    Plan.make ~name:"brownout"
      [ { Plan.at = 0.05; tier = "back"; kind = Plan.Slowdown { factor = 4.0; lasts = 0.4 } } ]
  in
  let clean = run_armoured app in
  let degraded = run_armoured ~fault_plan:plan app in
  Alcotest.(check bool)
    (Printf.sprintf "degraded p99 %.3fms >= clean p99 %.3fms"
       (1e3 *. degraded.Runner.service.Service.latency.Stats.p99)
       (1e3 *. clean.Runner.service.Service.latency.Stats.p99))
    true
    (degraded.Runner.service.Service.latency.Stats.p99
    >= clean.Runner.service.Service.latency.Stats.p99)

let test_client_retries_reduce_errors () =
  let app = chaos_app () in
  let plan =
    Plan.make ~name:"flaky"
      [
        {
          Plan.at = 0.05;
          tier = "front";
          kind = Plan.Link { add_latency = 1e-4; drop = 0.25; lasts = 0.4 };
        };
      ]
  in
  let err_rate retries =
    let out =
      run_armoured ~fault_plan:plan ~load:(chaos_load ~client_retries:retries ()) app
    in
    let r = out.Runner.service in
    Pipeline.error_rate r
  in
  let none = err_rate 0 and retried = err_rate 3 in
  Alcotest.(check bool)
    (Printf.sprintf "drops surface as errors without retries (%.3f)" none)
    true (none > 0.0);
  Alcotest.(check bool)
    (Printf.sprintf "retries shrink the error rate (%.3f -> %.3f)" none retried)
    true
    (retried < none)

let test_crash_triggers_timeouts_and_breaker () =
  let app = chaos_app () in
  let plan =
    Plan.make ~name:"kill-back" [ crash ~at:0.1 ~down_for:0.15 "back" ]
  in
  let out = run_armoured ~fault_plan:plan app in
  let front =
    List.find
      (fun (o : Service.tier_obs) -> o.Service.obs_name = "front")
      out.Runner.service.Service.tiers
  in
  Alcotest.(check bool) "downstream calls timed out" true (front.Service.obs_timeouts > 0);
  Alcotest.(check bool) "timed-out calls were retried" true (front.Service.obs_retries > 0);
  Alcotest.(check bool) "breaker reacted" true (front.Service.obs_breaker_transitions > 0);
  (* the run ends with the tier back up: traffic flows again afterwards *)
  Alcotest.(check bool) "service recovered" true
    (out.Runner.service.Service.completed > 0)

let test_partition_drops_messages () =
  let app = chaos_app () in
  let plan =
    Plan.make ~name:"split"
      [ { Plan.at = 0.1; tier = "back"; kind = Plan.Partition { lasts = 0.1 } } ]
  in
  let out = run_armoured ~fault_plan:plan app in
  let drops =
    List.fold_left
      (fun acc (o : Service.tier_obs) -> acc + o.Service.obs_link_drops)
      0 out.Runner.service.Service.tiers
  in
  Alcotest.(check bool) "partition dropped traffic" true (drops > 0)

let test_disabled_faults_identical () =
  (* Resilience knobs off + no plan must be byte-identical to the seed
     behaviour: the whole chaos layer is opt-in. *)
  let app = chaos_app () in
  let load = Service.load ~qps:2500.0 ~duration:0.5 () in
  let run () = Runner.run (Runner.config ~requests:40 Platform.a) ~load app in
  let a = run () and b = run () in
  Alcotest.(check bool) "identical fingerprints" true
    (service_fingerprint a.Runner.service = service_fingerprint b.Runner.service);
  Alcotest.(check int) "no errors" 0 a.Runner.service.Service.errors;
  Alcotest.(check int) "no shed"
    0
    (List.fold_left
       (fun acc (o : Service.tier_obs) -> acc + o.Service.obs_shed)
       0 a.Runner.service.Service.tiers)

(* {1 Fidelity under failure: the clone degrades like the original} *)

let test_canonical_plans_within_tolerance () =
  let load, r = Lazy.force clone_lazy in
  let tiers = List.map (fun (t : Spec.tier) -> t.Spec.tier_name) r.Pipeline.original.Spec.tiers in
  List.iter
    (fun (plan : Plan.t) ->
      let ch =
        Pipeline.validate_under ~platform:Platform.a ~load ~plan ~label:plan.Plan.plan_name r
      in
      let card = Scorecard.of_chaos ~app:"chaos_app" ?tuning:r.Pipeline.tuning ch in
      let failure =
        match card.Scorecard.failure with
        | Some f -> f
        | None -> Alcotest.fail "chaos scorecard without failure section"
      in
      let row name =
        List.find
          (fun (fr : Scorecard.failure_row) -> fr.Scorecard.f_metric = name)
          failure.Scorecard.failure_rows
      in
      let er = row "error_rate" and p99 = row "lat_p99" in
      Alcotest.(check bool)
        (Printf.sprintf "%s: error rate within 5pp (actual %.3f synth %.3f delta %.2fpp)"
           plan.Plan.plan_name er.Scorecard.f_actual er.Scorecard.f_synthetic
           er.Scorecard.f_delta)
        true er.Scorecard.f_pass;
      Alcotest.(check bool)
        (Printf.sprintf "%s: degraded p99 within 5%% (actual %.4fms synth %.4fms err %.2f%%)"
           plan.Plan.plan_name (1e3 *. p99.Scorecard.f_actual)
           (1e3 *. p99.Scorecard.f_synthetic) p99.Scorecard.f_delta)
        true p99.Scorecard.f_pass)
    (Plan.canonical ~duration:load.Service.duration ~tiers)

let () =
  Alcotest.run "fault"
    [
      ( "plan",
        [
          Alcotest.test_case "validation" `Quick test_plan_validation;
          Alcotest.test_case "late events warn or reject" `Quick test_plan_late_events;
          Alcotest.test_case "json roundtrip" `Quick test_plan_json_roundtrip;
          Alcotest.test_case "canonical plans" `Quick test_plan_canonical;
        ] );
      ( "breaker",
        [
          Alcotest.test_case "trips at threshold" `Quick test_breaker_trips_at_threshold;
          Alcotest.test_case "open/half-open cycle" `Quick test_breaker_open_half_open_cycle;
          Alcotest.test_case "probe failure reopens" `Quick test_breaker_probe_failure_reopens;
          Alcotest.test_case "probe budget exhaustion" `Quick test_breaker_probe_budget_exhaustion;
          Alcotest.test_case "re-open race" `Quick test_breaker_reopen_race;
          Alcotest.test_case "bad config rejected" `Quick test_breaker_bad_config_rejected;
        ] );
      ( "injector",
        [ Alcotest.test_case "window edges, handles and links" `Quick test_injector_windows ] );
      ( "injection",
        [
          Alcotest.test_case "deterministic across pools" `Slow
            test_chaos_determinism_across_pools;
          Alcotest.test_case "disabled faults identical" `Slow test_disabled_faults_identical;
        ] );
      ( "resilience",
        [
          Alcotest.test_case "brownout raises p99" `Slow test_brownout_raises_tail_latency;
          Alcotest.test_case "retries reduce errors" `Slow test_client_retries_reduce_errors;
          Alcotest.test_case "crash: timeouts and breaker" `Slow
            test_crash_triggers_timeouts_and_breaker;
          Alcotest.test_case "partition drops" `Slow test_partition_drops_messages;
        ] );
      ( "fidelity",
        [
          Alcotest.test_case "canonical plans within tolerance" `Slow
            test_canonical_plans_within_tolerance;
        ] );
    ]
