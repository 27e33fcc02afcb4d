(* Tests for distributed tracing: spans, collection, DAG extraction. *)
open Ditto_trace
open Ditto_app
module Platform = Ditto_uarch.Platform

let span ~trace_id ~span_id ?parent ~service () =
  {
    Span.trace_id;
    span_id;
    parent_span = parent;
    service;
    req_bytes = 100;
    resp_bytes = 200;
  }

(* {1 Span} *)

let test_span_root () =
  Alcotest.(check bool) "root" true (Span.root (span ~trace_id:0 ~span_id:0 ~service:"a" ()));
  Alcotest.(check bool) "child" false
    (Span.root (span ~trace_id:0 ~span_id:1 ~parent:0 ~service:"b" ()))

(* {1 Dag.of_spans on hand-built spans} *)

let two_tier_spans n =
  (* every request: a -> b; every second request: a -> c twice *)
  List.concat
    (List.init n (fun t ->
         let base = t * 10 in
         [ span ~trace_id:t ~span_id:base ~service:"a" ();
           span ~trace_id:t ~span_id:(base + 1) ~parent:base ~service:"b" () ]
         @
         if t mod 2 = 0 then
           [ span ~trace_id:t ~span_id:(base + 2) ~parent:base ~service:"c" ();
             span ~trace_id:t ~span_id:(base + 3) ~parent:base ~service:"c" () ]
         else []))

let test_dag_extraction () =
  let dag = Dag.of_spans (two_tier_spans 100) in
  Alcotest.(check string) "entry" "a" dag.Dag.entry;
  Alcotest.(check int) "three services" 3 (List.length dag.Dag.services);
  let ab = List.find (fun e -> e.Dag.callee = "b") dag.Dag.edges in
  Alcotest.(check (float 1e-9)) "a->b once per request" 1.0 ab.Dag.calls_per_request;
  Alcotest.(check (float 1e-9)) "a->b every request" 1.0 ab.Dag.probability;
  let ac = List.find (fun e -> e.Dag.callee = "c") dag.Dag.edges in
  Alcotest.(check (float 1e-9)) "a->c twice every other request" 1.0 ac.Dag.calls_per_request;
  Alcotest.(check (float 1e-9)) "a->c probability 0.5" 0.5 ac.Dag.probability;
  Alcotest.(check int) "req bytes" 100 ab.Dag.req_bytes

let test_dag_downstreams () =
  let dag = Dag.of_spans (two_tier_spans 10) in
  Alcotest.(check int) "a has two downstream edges" 2 (List.length (Dag.downstreams dag "a"));
  Alcotest.(check int) "b is a leaf" 0 (List.length (Dag.downstreams dag "b"))

let test_dag_topo_order () =
  let dag = Dag.of_spans (two_tier_spans 10) in
  match Dag.topo_order dag with
  | "a" :: rest ->
      Alcotest.(check int) "all services ordered" 2 (List.length rest)
  | other -> Alcotest.failf "entry not first: %s" (String.concat "," other)

let test_dag_no_root_rejected () =
  Alcotest.check_raises "no root" (Invalid_argument "Dag.of_spans: no root span") (fun () ->
      ignore (Dag.of_spans [ span ~trace_id:0 ~span_id:1 ~parent:0 ~service:"x" () ]))

let test_dag_deep_chain () =
  let spans =
    List.concat
      (List.init 20 (fun t ->
           [ span ~trace_id:t ~span_id:0 ~service:"a" ();
             span ~trace_id:t ~span_id:1 ~parent:0 ~service:"b" ();
             span ~trace_id:t ~span_id:2 ~parent:1 ~service:"c" () ]))
  in
  let dag = Dag.of_spans spans in
  let bc = List.find (fun e -> e.Dag.caller = "b") dag.Dag.edges in
  Alcotest.(check string) "b calls c" "c" bc.Dag.callee;
  Alcotest.(check (list string)) "topological" [ "a"; "b"; "c" ] (Dag.topo_order dag)

(* {1 Jaeger ingest hardening} *)

(* Hand-written Jaeger documents: structurally valid JSON whose span
   content is broken must raise the typed Ingest_error naming the span —
   never Stack_overflow (cycles) or silent garbage (negative durations). *)
let jaeger_doc spans =
  Printf.sprintf {|{"data": [{"traceID": "1", "spans": [%s]}]}|} (String.concat ", " spans)

let jaeger_span ?parent ?duration ~id () =
  let refs =
    match parent with
    | None -> ""
    | Some p -> Printf.sprintf {|, "references": [{"refType": "CHILD_OF", "spanID": "%s"}]|} p
  in
  let dur = match duration with None -> "" | Some d -> Printf.sprintf {|, "duration": %s|} d in
  Printf.sprintf {|{"traceID": "1", "spanID": "%s", "operationName": "svc-%s"%s%s}|} id id refs
    dur

let check_ingest_error ~expect_span doc =
  match Jaeger.of_string doc with
  | spans -> Alcotest.failf "broken document accepted (%d spans)" (List.length spans)
  | exception Jaeger.Ingest_error { span_id; reason = _ } ->
      Alcotest.(check string) "offending span named" expect_span span_id

let test_jaeger_valid_roundtrip () =
  let doc =
    jaeger_doc [ jaeger_span ~id:"a" (); jaeger_span ~id:"b" ~parent:"a" ~duration:"12.5" () ]
  in
  let spans = Jaeger.of_string doc in
  Alcotest.(check int) "both spans" 2 (List.length spans);
  Alcotest.(check bool) "one root" true (List.exists Span.root spans)

let test_jaeger_self_parent () =
  check_ingest_error ~expect_span:"a" (jaeger_doc [ jaeger_span ~id:"a" ~parent:"a" () ])

let test_jaeger_cycle () =
  (* b -> c -> d -> b: a cycle no single span's reference reveals. The old
     recursive ancestry walk would never terminate on this. *)
  check_ingest_error ~expect_span:"b"
    (jaeger_doc
       [
         jaeger_span ~id:"a" ();
         jaeger_span ~id:"b" ~parent:"c" ();
         jaeger_span ~id:"c" ~parent:"d" ();
         jaeger_span ~id:"d" ~parent:"b" ();
       ])

let test_jaeger_malformed_parent () =
  check_ingest_error ~expect_span:"a"
    (jaeger_doc [ jaeger_span ~id:"a" ~parent:"not-hex!" () ])

let test_jaeger_negative_duration () =
  check_ingest_error ~expect_span:"b"
    (jaeger_doc [ jaeger_span ~id:"a" (); jaeger_span ~id:"b" ~parent:"a" ~duration:"-3" () ])

let test_jaeger_long_chain_ok () =
  (* A deep but acyclic chain must pass the cycle check (bound is the
     parented-span count, not an arbitrary depth limit). *)
  let n = 500 in
  let spans =
    jaeger_span ~id:"0" ()
    :: List.init n (fun i ->
           jaeger_span ~id:(Printf.sprintf "%x" (i + 1)) ~parent:(Printf.sprintf "%x" i) ())
  in
  Alcotest.(check int) "all ingested" (n + 1) (List.length (Jaeger.of_string (jaeger_doc spans)))

(* Ids are 64-bit hex in Jaeger but an OCaml int holds 63 bits: an id past
   that is bad input, never an uncaught [Failure]. *)
let test_jaeger_wide_span_id () =
  match Jaeger.of_string (jaeger_doc [ jaeger_span ~id:"8000000000000000" () ]) with
  | _ -> Alcotest.fail "64-bit span id accepted"
  | exception Ditto_util.Jsonx.Parse_error _ -> ()

let test_jaeger_wide_parent () =
  check_ingest_error ~expect_span:"a"
    (jaeger_doc [ jaeger_span ~id:"a" ~parent:"ffffffffffffffff" () ])

let test_jaeger_max_span_id () =
  let spans =
    Jaeger.of_string
      (jaeger_doc
         [ jaeger_span ~id:"7fffffffffffffff" (); jaeger_span ~id:"b" ~parent:"7fffffffffffffff" () ])
  in
  Alcotest.(check int) "both spans" 2 (List.length spans);
  Alcotest.(check bool) "round trip" true (Jaeger.of_string (Jaeger.to_string spans) = spans)

(* {1 Collector over a real measured microservice} *)

let collect_social () =
  let app = Ditto_apps.Social_network.spec () in
  let cfg = Runner.config ~requests:40 ~seed:11 Platform.a in
  let load = Service.load ~qps:400.0 ~duration:0.4 () in
  let out = Runner.run cfg ~load app in
  let results name = List.assoc name out.Runner.measured in
  Collector.collect ~entry:app.Spec.entry ~results ~samples:120 ~seed:13

let test_collector_spans () =
  let spans = collect_social () in
  Alcotest.(check bool) "many spans" true (List.length spans > 200);
  let roots = List.filter Span.root spans in
  Alcotest.(check int) "one root per sampled trace" 120 (List.length roots);
  List.iter
    (fun (s : Span.t) ->
      Alcotest.(check bool) "frontend roots" true
        (not (Span.root s) || s.Span.service = "frontend"))
    spans

let test_collector_dag_is_social_topology () =
  let dag = Dag.of_spans (collect_social ()) in
  Alcotest.(check string) "entry" "frontend" dag.Dag.entry;
  (* All 22 services should appear in enough samples. *)
  Alcotest.(check int) "all tiers discovered" 22 (List.length dag.Dag.services);
  (* frontend calls exactly compose-post and home-timeline *)
  let fe = Dag.downstreams dag "frontend" |> List.map (fun e -> e.Dag.callee) in
  Alcotest.(check bool) "frontend -> compose" true (List.mem "ComposePostService" fe);
  Alcotest.(check bool) "frontend -> home timeline" true (List.mem "HomeTimelineService" fe);
  Alcotest.(check int) "only those two" 2 (List.length fe);
  (* text-service fans out to url-shorten and user-mention with p ~ 0.5 *)
  let tx = Dag.downstreams dag "TextService" in
  List.iter
    (fun e ->
      Alcotest.(check bool)
        (Printf.sprintf "text edge p in (0.2,0.8): %s" e.Dag.callee)
        true
        (e.Dag.probability > 0.2 && e.Dag.probability < 0.8))
    tx;
  (* acyclic *)
  Alcotest.(check int) "topo covers all" 22 (List.length (Dag.topo_order dag))

let test_dag_pp_smoke () =
  let dag = Dag.of_spans (two_tier_spans 4) in
  let s = Format.asprintf "%a" Dag.pp dag in
  Alcotest.(check bool) "pp mentions entry" true (String.length s > 10)

let () =
  Alcotest.run "trace"
    [
      ("span", [ Alcotest.test_case "root" `Quick test_span_root ]);
      ( "dag",
        [
          Alcotest.test_case "extraction" `Quick test_dag_extraction;
          Alcotest.test_case "downstreams" `Quick test_dag_downstreams;
          Alcotest.test_case "topo order" `Quick test_dag_topo_order;
          Alcotest.test_case "no root" `Quick test_dag_no_root_rejected;
          Alcotest.test_case "deep chain" `Quick test_dag_deep_chain;
          Alcotest.test_case "pp" `Quick test_dag_pp_smoke;
        ] );
      ( "jaeger",
        [
          Alcotest.test_case "valid roundtrip" `Quick test_jaeger_valid_roundtrip;
          Alcotest.test_case "self parent" `Quick test_jaeger_self_parent;
          Alcotest.test_case "cycle" `Quick test_jaeger_cycle;
          Alcotest.test_case "malformed parent ref" `Quick test_jaeger_malformed_parent;
          Alcotest.test_case "negative duration" `Quick test_jaeger_negative_duration;
          Alcotest.test_case "long acyclic chain" `Quick test_jaeger_long_chain_ok;
          Alcotest.test_case "span id past 63 bits" `Quick test_jaeger_wide_span_id;
          Alcotest.test_case "parent ref past 63 bits" `Quick test_jaeger_wide_parent;
          Alcotest.test_case "largest span id round-trips" `Quick test_jaeger_max_span_id;
        ] );
      ( "collector",
        [
          Alcotest.test_case "spans" `Slow test_collector_spans;
          Alcotest.test_case "social topology" `Slow test_collector_dag_is_social_topology;
        ] );
    ]
