(* Request-centric tracing and critical-path attribution: the Reqtrace
   collector (sampling determinism, per-type quota, finalize semantics),
   the Critpath backward walk (segment/RPC decomposition, retries, shed
   requests, tie-breaking), the divergence scorecard, and the Jaeger
   round trip through the ingest path inspect-trace uses. All tests
   fabricate traces through the public recorder API — no engine, no
   pool — so the suite is trivially deterministic across DITTO_DOMAINS. *)
module Rq = Ditto_obs.Reqtrace
module Cp = Ditto_report.Critpath
module J = Ditto_util.Jsonx

let feq = Alcotest.(check (float 1e-9))

(* A canonical single-tier request at [t0]:
     client [t0, t0+10ms], rpc [t0+1ms, t0+9ms] -> redis server
     (arrive t0+2ms, handle from t0+3ms, 4ms of service, reply t0+7ms).
   Critical path: redis/service 4ms, client/rpc:redis 3ms (the 8ms wait
   minus the 5ms the server held the request), redis/queue 1ms, and 2ms
   of client gaps -> "other". *)
let single_tier_trace ?(service_dur = 0.004) t ~t0 =
  let root = Rq.client_start t ~at:t0 in
  let rpc = Rq.rpc_begin t ~parent:root ~target:"redis" ~at:(t0 +. 0.001) in
  let srv =
    Rq.server_begin t ~parent:rpc ~tier:"redis" ~bytes:100 ~arrived:(t0 +. 0.002)
      ~at:(t0 +. 0.003)
  in
  Rq.server_op t ~span:srv ~op:0;
  Rq.segment t ~span:srv Rq.Service ~start:(t0 +. 0.003) ~dur:service_dur;
  Rq.server_end t ~span:srv ~bytes:200 ~at:(t0 +. 0.003 +. service_dur) Rq.Ok;
  Rq.rpc_end t ~span:rpc ~at:(t0 +. 0.005 +. service_dur) Rq.Ok;
  Rq.client_finish t ~span:root ~at:(t0 +. 0.006 +. service_dur) Rq.Ok;
  root

let collect_all () = Rq.create ~sample_every:1 ~seed:11 ()

let contribution cs tier seg =
  List.fold_left (fun acc (t, s, v) -> if t = tier && s = seg then acc +. v else acc) 0.0 cs

(* {1 Collector} *)

let sampled_pattern ~seed n =
  let t = Rq.create ~seed () in
  let pat = List.init n (fun i -> Rq.client_start t ~at:(0.001 *. float_of_int i) <> 0) in
  Alcotest.(check int) "every request counted" n (Rq.requests_seen t);
  pat

let test_sampling_deterministic () =
  let a = sampled_pattern ~seed:42 500 and b = sampled_pattern ~seed:42 500 in
  Alcotest.(check bool) "same seed, same sampled set" true (a = b);
  let c = sampled_pattern ~seed:43 500 in
  Alcotest.(check bool) "different seed, different sampled set" true (a <> c);
  (* roughly 1 in sample_every (default 7), not all and not none *)
  let n = List.length (List.filter Fun.id a) in
  Alcotest.(check bool) "plausible sample count" true (n > 20 && n < 200)

let test_max_traces_cap () =
  let t = Rq.create ~sample_every:1 ~max_traces:3 ~seed:1 () in
  for i = 0 to 9 do
    ignore (single_tier_trace t ~t0:(0.1 *. float_of_int i))
  done;
  Rq.finalize t ~at:10.0;
  Alcotest.(check int) "all requests seen" 10 (Rq.requests_seen t);
  Alcotest.(check int) "trace cap enforced" 3 (Rq.sampled t);
  Alcotest.(check int) "traces reader agrees" 3 (List.length (Rq.traces t))

let test_per_type_quota () =
  let t = Rq.create ~sample_every:1 ~max_per_type:2 ~seed:1 () in
  for i = 0 to 4 do
    ignore (single_tier_trace t ~t0:(0.1 *. float_of_int i))
  done;
  Rq.finalize t ~at:10.0;
  (* all five requests replay trace index 0 (server_op 0), so the
     per-type quota keeps only the first two *)
  Alcotest.(check int) "per-type quota enforced" 2 (Rq.sampled t);
  List.iter
    (fun (r : Rq.span) -> Alcotest.(check int) "type propagated to root" 0 r.Rq.sp_op)
    (Rq.traces t)

let test_finalize_closes_open_spans () =
  let t = collect_all () in
  let root = Rq.client_start t ~at:0.0 in
  let rpc = Rq.rpc_begin t ~parent:root ~target:"web" ~at:0.001 in
  Alcotest.(check bool) "rpc span allocated" true (rpc <> 0);
  Rq.finalize t ~at:0.5;
  Rq.finalize t ~at:9.9 (* idempotent: the second call must not reopen *);
  match Rq.traces t with
  | [ r ] ->
      feq "root closed at finalize time" 0.5 r.Rq.sp_end;
      Alcotest.(check bool) "in-flight request marked timeout" true (r.Rq.sp_outcome = Rq.Timeout);
      (match r.Rq.sp_children with
      | [ c ] ->
          feq "child rpc closed too" 0.5 c.Rq.sp_end;
          Alcotest.(check bool) "child timeout" true (c.Rq.sp_outcome = Rq.Timeout)
      | l -> Alcotest.failf "expected 1 child, got %d" (List.length l))
  | l -> Alcotest.failf "expected 1 trace, got %d" (List.length l)

(* {1 Critical-path extraction} *)

let test_single_tier_decomposition () =
  let t = collect_all () in
  let _ = single_tier_trace t ~t0:0.0 in
  Rq.finalize t ~at:1.0;
  let root = List.hd (Rq.traces t) in
  let cs = Cp.contributions root in
  feq "service" 0.004 (contribution cs "redis" "service");
  feq "network (rpc wait minus server time)" 0.003 (contribution cs "client" "rpc:redis");
  feq "accept-queue wait" 0.001 (contribution cs "redis" "queue");
  feq "uncovered client gaps" 0.002 (contribution cs "client" "other");
  feq "contributions cover the whole e2e" 0.010
    (List.fold_left (fun a (_, _, v) -> a +. v) 0.0 cs);
  (* descending-seconds order, service first *)
  match cs with
  | (t0, s0, _) :: _ ->
      Alcotest.(check string) "largest contributor first" "redis/service" (t0 ^ "/" ^ s0)
  | [] -> Alcotest.fail "empty contributions"

let test_retry_dominated_path () =
  let t = collect_all () in
  let root = Rq.client_start t ~at:0.0 in
  (* first attempt times out after 10ms with no server-side span *)
  let rpc1 = Rq.rpc_begin t ~parent:root ~target:"db" ~at:0.001 in
  Rq.rpc_end t ~span:rpc1 ~at:0.011 Rq.Timeout;
  (* retry succeeds quickly *)
  let rpc2 = Rq.rpc_begin t ~parent:root ~target:"db" ~at:0.012 in
  let srv = Rq.server_begin t ~parent:rpc2 ~tier:"db" ~bytes:50 ~arrived:0.0125 ~at:0.0125 in
  Rq.segment t ~span:srv Rq.Service ~start:0.0125 ~dur:0.001;
  Rq.server_end t ~span:srv ~bytes:80 ~at:0.0135 Rq.Ok;
  Rq.rpc_end t ~span:rpc2 ~at:0.014 Rq.Ok;
  Rq.client_finish t ~span:root ~at:0.015 Rq.Ok;
  Rq.finalize t ~at:1.0;
  let cs = Cp.contributions (List.hd (Rq.traces t)) in
  (* the timed-out attempt (10ms, whole interval: the callee never ran)
     plus the successful attempt's 1ms network share *)
  feq "rpc wait dominates" 0.011 (contribution cs "db" "rpc:db" +. contribution cs "client" "rpc:db");
  feq "retried service time" 0.001 (contribution cs "db" "service");
  feq "gaps" 0.003 (contribution cs "client" "other");
  match cs with
  | (tier, seg, _) :: _ -> Alcotest.(check string) "retry leads" "client/rpc:db" (tier ^ "/" ^ seg)
  | [] -> Alcotest.fail "empty contributions"

let test_shed_request () =
  let t = collect_all () in
  let root = Rq.client_start t ~at:0.0 in
  let rpc = Rq.rpc_begin t ~parent:root ~target:"web" ~at:0.001 in
  (* the tier sheds at delivery: no queue segment, no service work *)
  let srv = Rq.server_begin t ~parent:rpc ~tier:"web" ~bytes:50 ~arrived:0.002 ~at:0.002 in
  Rq.server_end t ~span:srv ~bytes:8 ~at:0.002 Rq.Shed;
  Rq.rpc_end t ~span:rpc ~at:0.003 Rq.Err;
  Rq.client_finish t ~span:root ~at:0.004 Rq.Err;
  Rq.finalize t ~at:1.0;
  let root_sp = List.hd (Rq.traces t) in
  Alcotest.(check bool) "client outcome is err" true (root_sp.Rq.sp_outcome = Rq.Err);
  let shed_server =
    match root_sp.Rq.sp_children with
    | [ r ] -> List.hd r.Rq.sp_children
    | _ -> Alcotest.fail "expected a single rpc child"
  in
  Alcotest.(check bool) "server outcome is shed" true (shed_server.Rq.sp_outcome = Rq.Shed);
  let cs = Cp.contributions root_sp in
  (* the whole rpc wait is network/reject overhead: the server held the
     request for zero time *)
  feq "rpc wait" 0.002 (contribution cs "client" "rpc:web");
  feq "no service time" 0.0 (contribution cs "web" "service");
  feq "covers e2e" 0.004 (List.fold_left (fun a (_, _, v) -> a +. v) 0.0 cs)

let test_tie_breaking () =
  (* Two async fan-out calls with byte-identical [start, end] intervals:
     the walk must deterministically descend into the later-recorded one
     (what the join "waited on" last), and must not double-count the
     other. *)
  let build () =
    let t = collect_all () in
    let root = Rq.client_start t ~at:0.0 in
    let attempt target =
      let rpc = Rq.rpc_begin t ~parent:root ~target ~at:0.001 in
      let srv = Rq.server_begin t ~parent:rpc ~tier:target ~bytes:10 ~arrived:0.002 ~at:0.002 in
      Rq.segment t ~span:srv Rq.Service ~start:0.002 ~dur:0.006;
      Rq.server_end t ~span:srv ~at:0.008 Rq.Ok;
      Rq.rpc_end t ~span:rpc ~at:0.009 Rq.Ok
    in
    attempt "alpha";
    attempt "beta";
    Rq.client_finish t ~span:root ~at:0.010 Rq.Ok;
    Rq.finalize t ~at:1.0;
    Cp.contributions (List.hd (Rq.traces t))
  in
  let cs = build () in
  Alcotest.(check bool) "later-recorded twin wins" true (contribution cs "beta" "service" > 0.0);
  feq "earlier twin not double-counted" 0.0 (contribution cs "alpha" "service");
  feq "covers e2e exactly once" 0.010 (List.fold_left (fun a (_, _, v) -> a +. v) 0.0 cs);
  (* and extraction is reproducible *)
  Alcotest.(check bool) "deterministic" true (build () = cs)

(* {1 Tables and divergence} *)

let table_of ~service_dur n =
  let t = collect_all () in
  for i = 0 to n - 1 do
    ignore (single_tier_trace ~service_dur t ~t0:(0.1 *. float_of_int i))
  done;
  Rq.finalize t ~at:100.0;
  Cp.of_traces (Rq.traces t)

let test_of_traces_shares () =
  let tbl = table_of ~service_dur:0.004 8 in
  Alcotest.(check int) "samples" 8 tbl.Cp.t_samples;
  feq "mean e2e" 0.010 tbl.Cp.t_mean_e2e;
  let cell tier seg =
    List.find (fun c -> c.Cp.c_tier = tier && c.Cp.c_segment = seg) tbl.Cp.t_cells
  in
  feq "service share" 40.0 (cell "redis" "service").Cp.c_share_pct;
  feq "rpc share" 30.0 (cell "client" "rpc:redis").Cp.c_share_pct;
  feq "queue share" 10.0 (cell "redis" "queue").Cp.c_share_pct;
  feq "identical traces: p99 = mean" (cell "redis" "service").Cp.c_mean
    (cell "redis" "service").Cp.c_p99;
  (* cells ranked by share, descending *)
  match tbl.Cp.t_cells with
  | a :: b :: _ -> Alcotest.(check bool) "sorted" true (a.Cp.c_share_pct >= b.Cp.c_share_pct)
  | _ -> Alcotest.fail "expected several cells"

let test_divergence_ranking () =
  (* clone spends 2ms instead of 4ms in service: with the 8ms skeleton
     around it, its service share drops from 40% to 25% — the worst
     divergence must name redis/service with err_pp = -15. *)
  let actual = table_of ~service_dur:0.004 8 in
  let clone = table_of ~service_dur:0.002 8 in
  let d = Cp.divergence ~app:"unit" ~actual ~clone () in
  (match Cp.worst d with
  | Some r ->
      Alcotest.(check string) "worst tier" "redis" r.Cp.d_tier;
      Alcotest.(check string) "worst segment" "service" r.Cp.d_segment;
      feq "signed error in pp" (-15.0) r.Cp.d_err_pp
  | None -> Alcotest.fail "no divergence rows");
  let flat = Cp.flat d in
  feq "per-cell flat key (absolute pp)" 15.0
    (List.assoc "unit/steady/redis/service/share_err_pp" flat);
  feq "worst summary" 15.0 (List.assoc "unit/steady/worst_share_err_pp" flat);
  Alcotest.(check bool) "mean summary present" true
    (List.mem_assoc "unit/steady/mean_share_err_pp" flat);
  (* a plan name lands in the key path *)
  let flat_p = Cp.flat (Cp.divergence ~app:"unit" ~plan:"kill" ~actual ~clone ()) in
  Alcotest.(check bool) "plan in key" true (List.mem_assoc "unit/kill/worst_share_err_pp" flat_p)

let test_empty_traces () =
  let tbl = Cp.of_traces [] in
  Alcotest.(check int) "no samples" 0 tbl.Cp.t_samples;
  Alcotest.(check bool) "no cells" true (tbl.Cp.t_cells = []);
  let d = Cp.divergence ~app:"unit" ~actual:tbl ~clone:tbl () in
  Alcotest.(check bool) "no worst row" true (Cp.worst d = None);
  Alcotest.(check bool) "summary keys still emitted" true
    (List.mem_assoc "unit/steady/worst_share_err_pp" (Cp.flat d))

(* {1 Jaeger round trip} *)

let test_jaeger_roundtrip () =
  let t = collect_all () in
  let _ = single_tier_trace t ~t0:0.0 in
  let _ = single_tier_trace t ~t0:1.0 in
  Rq.finalize t ~at:2.0;
  let spans = Ditto_trace.Jaeger.of_string (J.to_string (Rq.jaeger t)) in
  (* client root + server span per trace; RPC spans are folded away *)
  Alcotest.(check int) "two spans per trace" 4 (List.length spans);
  let roots = Ditto_trace.Dag.roots spans in
  Alcotest.(check int) "one root per sampled request" 2 (List.length roots);
  List.iter
    (fun ((r : Ditto_trace.Span.t), count) ->
      Alcotest.(check string) "root is the client" Rq.client_tier r.Ditto_trace.Span.service;
      Alcotest.(check int) "root reaches the whole tree" 2 count)
    roots;
  let dag = Ditto_trace.Dag.of_spans spans in
  Alcotest.(check string) "recovered entry" Rq.client_tier dag.Ditto_trace.Dag.entry;
  Alcotest.(check int) "client -> redis edge" 1 (List.length dag.Ditto_trace.Dag.edges)

let () =
  Alcotest.run "critpath"
    [
      ( "collector",
        [
          Alcotest.test_case "sampling deterministic in the seed" `Quick
            test_sampling_deterministic;
          Alcotest.test_case "max_traces cap" `Quick test_max_traces_cap;
          Alcotest.test_case "per-type quota" `Quick test_per_type_quota;
          Alcotest.test_case "finalize closes open spans" `Quick
            test_finalize_closes_open_spans;
        ] );
      ( "critical path",
        [
          Alcotest.test_case "single-tier decomposition" `Quick test_single_tier_decomposition;
          Alcotest.test_case "retry-dominated path" `Quick test_retry_dominated_path;
          Alcotest.test_case "shed request" `Quick test_shed_request;
          Alcotest.test_case "equal-length paths tie-break" `Quick test_tie_breaking;
        ] );
      ( "divergence",
        [
          Alcotest.test_case "contribution table shares" `Quick test_of_traces_shares;
          Alcotest.test_case "divergence ranking and flat keys" `Quick test_divergence_ranking;
          Alcotest.test_case "empty trace sets" `Quick test_empty_traces;
        ] );
      ( "jaeger",
        [ Alcotest.test_case "export re-ingests cleanly" `Quick test_jaeger_roundtrip ] );
    ]
