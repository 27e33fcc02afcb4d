(* Tests for the network and storage device models. *)
open Ditto_sim
open Ditto_net
module Disk = Ditto_storage.Disk
module Platform = Ditto_uarch.Platform

let check_close msg tolerance expected actual =
  if Float.abs (expected -. actual) > tolerance then
    Alcotest.failf "%s: expected %g within %g, got %g" msg expected tolerance actual

(* {1 Disk} *)

let test_disk_service_times () =
  let engine = Engine.create () in
  let ssd = Disk.create engine Platform.Ssd and hdd = Disk.create engine Platform.Hdd in
  Alcotest.(check bool) "HDD random >> SSD random" true
    (Disk.service_time hdd ~bytes:4096 ~random:true
    > 10.0 *. Disk.service_time ssd ~bytes:4096 ~random:true);
  Alcotest.(check bool) "sequential cheaper than random" true
    (Disk.service_time hdd ~bytes:4096 ~random:false
    < Disk.service_time hdd ~bytes:4096 ~random:true);
  Alcotest.(check bool) "bigger transfers cost more" true
    (Disk.service_time ssd ~bytes:(1 lsl 20) ~random:false
    > Disk.service_time ssd ~bytes:4096 ~random:false)

let test_disk_hdd_queueing () =
  (* One actuator: two concurrent random reads serialise. *)
  let engine = Engine.create () in
  let hdd = Disk.create engine Platform.Hdd in
  let finish = ref [] in
  for _ = 1 to 2 do
    Engine.spawn engine (fun () ->
        Disk.read hdd ~bytes:4096 ~random:true;
        finish := Engine.now engine :: !finish)
  done;
  Engine.run engine;
  let t1 = Disk.service_time hdd ~bytes:4096 ~random:true in
  let latest = List.fold_left Float.max 0.0 !finish in
  check_close "second waits for first" 1e-6 (2.0 *. t1) latest

let test_disk_ssd_parallel_channels () =
  let engine = Engine.create () in
  let ssd = Disk.create engine Platform.Ssd in
  let finish = ref [] in
  for _ = 1 to 4 do
    Engine.spawn engine (fun () ->
        Disk.read ssd ~bytes:4096 ~random:true;
        finish := Engine.now engine :: !finish)
  done;
  Engine.run engine;
  let t1 = Disk.service_time ssd ~bytes:4096 ~random:true in
  List.iter (fun t -> check_close "parallel channels" 1e-6 t1 t) !finish

let test_disk_stats () =
  let engine = Engine.create () in
  let d = Disk.create engine Platform.Ssd in
  Engine.spawn engine (fun () ->
      Disk.read d ~bytes:1000 ~random:false;
      Disk.write d ~bytes:500);
  Engine.run engine;
  Alcotest.(check int) "read bytes" 1000 (Disk.bytes_read d);
  Alcotest.(check int) "written bytes" 500 (Disk.bytes_written d);
  Disk.reset_stats d;
  Alcotest.(check int) "reset" 0 (Disk.bytes_read d)

(* {1 NIC} *)

let test_nic_serialisation_time () =
  let engine = Engine.create () in
  let nic = Nic.create engine ~gbps:1.0 in
  let t = ref 0.0 in
  Engine.spawn engine (fun () ->
      Nic.transmit nic ~bytes:125_000;
      (* 1ms at 1Gbps *)
      t := Engine.now engine);
  Engine.run engine;
  Alcotest.(check bool) "roughly 1ms (plus framing)" true (!t >= 1e-3 && !t < 1.2e-3)

let test_nic_queueing () =
  let engine = Engine.create () in
  let nic = Nic.create engine ~gbps:1.0 in
  let finish = ref [] in
  for _ = 1 to 3 do
    Engine.spawn engine (fun () ->
        Nic.transmit nic ~bytes:125_000;
        finish := Engine.now engine :: !finish)
  done;
  Engine.run engine;
  let latest = List.fold_left Float.max 0.0 !finish in
  Alcotest.(check bool) "three messages serialise" true (latest >= 3e-3)

let test_nic_stats () =
  let engine = Engine.create () in
  let nic = Nic.create engine ~gbps:10.0 in
  Engine.spawn engine (fun () -> Nic.transmit nic ~bytes:100);
  Engine.run engine;
  Nic.note_received nic ~bytes:50;
  Alcotest.(check int) "sent" 100 (Nic.bytes_sent nic);
  Alcotest.(check int) "received" 50 (Nic.bytes_received nic);
  Alcotest.(check (float 1e-9)) "gbps" 10.0 (Nic.gbps nic)

(* {1 Socket} *)

let make_pair engine =
  let a_nic = Nic.create engine ~gbps:10.0 and b_nic = Nic.create engine ~gbps:10.0 in
  Socket.pair engine ~a_nic ~b_nic ~latency:1e-4

let test_socket_delivery () =
  let engine = Engine.create () in
  let a, b = make_pair engine in
  let got = ref 0 and at = ref 0.0 in
  Engine.spawn engine (fun () ->
      got := (Socket.recv_msg b).Socket.bytes;
      at := Engine.now engine);
  Engine.spawn engine (fun () -> Socket.send a ~bytes:1500);
  Engine.run engine;
  Alcotest.(check int) "size delivered" 1500 !got;
  Alcotest.(check bool) "after link latency" true (!at >= 1e-4)

let test_socket_bidirectional () =
  let engine = Engine.create () in
  let a, b = make_pair engine in
  let reply = ref 0 in
  Engine.spawn engine (fun () ->
      let req = (Socket.recv_msg b).Socket.bytes in
      Socket.send b ~bytes:(req * 2));
  Engine.spawn engine (fun () ->
      Socket.send a ~bytes:21;
      reply := (Socket.recv_msg a).Socket.bytes);
  Engine.run engine;
  Alcotest.(check int) "request/response" 42 !reply

let test_socket_recv_timed () =
  let engine = Engine.create () in
  let a, b = make_pair engine in
  let arrived = ref 0.0 in
  Engine.spawn engine (fun () ->
      arrived := (Socket.recv_msg b).Socket.arrived);
  Engine.spawn engine (fun () ->
      Engine.wait 0.5;
      Socket.send a ~bytes:10);
  Engine.run engine;
  Alcotest.(check bool) "delivery timestamp carried" true (!arrived >= 0.5)

let test_socket_try_recv_and_pending () =
  let engine = Engine.create () in
  let a, b = make_pair engine in
  Engine.spawn engine (fun () ->
      Socket.send a ~bytes:7;
      Engine.wait 1.0;
      Alcotest.(check int) "pending" 1 (Socket.pending b);
      let try_bytes () = Option.map (fun m -> m.Socket.bytes) (Socket.try_recv_msg b) in
      Alcotest.(check (option int)) "try_recv_msg" (Some 7) (try_bytes ());
      Alcotest.(check (option int)) "empty" None (try_bytes ()));
  Engine.run engine

(* {1 Epoll} *)

let test_epoll_ready_and_wait () =
  let engine = Engine.create () in
  let a, b = make_pair engine in
  let ep = Socket.Epoll.create () in
  Socket.Epoll.add ep b;
  let woke = ref [] in
  Engine.spawn engine (fun () -> woke := Socket.Epoll.wait ep);
  Engine.spawn engine (fun () -> Socket.send a ~bytes:5);
  Engine.run engine;
  Alcotest.(check int) "one ready endpoint" 1 (List.length !woke)

let test_epoll_timeout () =
  let engine = Engine.create () in
  let _, b = make_pair engine in
  let ep = Socket.Epoll.create () in
  Socket.Epoll.add ep b;
  let result = ref [ b ] in
  Engine.spawn engine (fun () -> result := Socket.Epoll.wait ~timeout:0.01 ep);
  Engine.run engine;
  Alcotest.(check int) "timeout returns empty" 0 (List.length !result)

let test_epoll_zero_timeout_polls () =
  (* timeout:0. is a poll: with data queued it returns the ready endpoints,
     and empty it returns [] instead of blocking. The empty-poll path must
     perform no engine effect — calling it outside any process context
     (below, after Engine.run has finished) would crash if it suspended. *)
  let engine = Engine.create () in
  let a, b = make_pair engine in
  let ep = Socket.Epoll.create () in
  Socket.Epoll.add ep b;
  Engine.spawn engine (fun () ->
      Alcotest.(check int) "empty poll returns immediately" 0
        (List.length (Socket.Epoll.wait ~timeout:0.0 ep));
      Alcotest.(check (float 1e-12)) "no virtual time consumed" 0.0 (Engine.now engine);
      Socket.send a ~bytes:3;
      Engine.wait 1.0;
      Alcotest.(check int) "queued data polls ready" 1
        (List.length (Socket.Epoll.wait ~timeout:0.0 ep)));
  Engine.run engine;
  Alcotest.(check int) "callable outside process context" 1
    (List.length (Socket.Epoll.wait ~timeout:0.0 ep))

let test_epoll_add_while_waiting () =
  (* Regression: a connection attached after the worker parked in wait must
     still wake it (without this, first requests stall a full timeout). *)
  let engine = Engine.create () in
  let ep = Socket.Epoll.create () in
  let woke_at = ref infinity in
  Engine.spawn engine (fun () ->
      ignore (Socket.Epoll.wait ~timeout:10.0 ep);
      woke_at := Engine.now engine);
  Engine.spawn engine (fun () ->
      Engine.wait 0.1;
      let a, b = make_pair engine in
      Socket.Epoll.add ep b;
      Socket.send a ~bytes:9);
  Engine.run engine;
  Alcotest.(check bool) "woken promptly, not at timeout" true (!woke_at < 1.0)

let test_epoll_multiple_endpoints () =
  let engine = Engine.create () in
  let pairs = List.init 4 (fun _ -> make_pair engine) in
  let ep = Socket.Epoll.create () in
  List.iter (fun (_, b) -> Socket.Epoll.add ep b) pairs;
  let ready_count = ref 0 in
  Engine.spawn engine (fun () ->
      let ready = Socket.Epoll.wait ep in
      ready_count := List.length ready);
  Engine.spawn engine (fun () ->
      let a1, _ = List.nth pairs 1 and a3, _ = List.nth pairs 3 in
      Socket.send a1 ~bytes:1;
      Socket.send a3 ~bytes:1);
  Engine.run engine;
  Alcotest.(check bool) "at least one ready" true (!ready_count >= 1)

let test_epoll_single_owner () =
  let engine = Engine.create () in
  let _, b = make_pair engine in
  let e1 = Socket.Epoll.create () and e2 = Socket.Epoll.create () in
  Socket.Epoll.add e1 b;
  let refused f = match f () with () -> false | exception Invalid_argument _ -> true in
  Alcotest.(check bool) "a second epoll is refused" true (refused (fun () -> Socket.Epoll.add e2 b));
  Alcotest.(check bool) "the same epoll twice is refused" true
    (refused (fun () -> Socket.Epoll.add e1 b))

(* Six endpoints split across two epolls (endpoint [i] joins epoll
   [i mod 2], in ascending order), driven by random sends, passes of time
   (which let deliveries land) and takes. After every step each epoll's
   [pending_total] equals the sum of its endpoints' [pending], and a
   zero-timeout [wait] returns exactly the non-empty endpoints, most
   recently added first. *)
type sock_op = Send of int | Pass of int | Take of int

let show_sock_op = function
  | Send i -> Printf.sprintf "send %d" i
  | Pass n -> Printf.sprintf "pass %dus" (10 * n)
  | Take i -> Printf.sprintf "take %d" i

let nsock = 6

let prop_epoll_counts_and_readiness =
  let sock = QCheck.Gen.int_bound (nsock - 1) in
  let op =
    QCheck.Gen.(
      frequency
        [
          (3, map (fun i -> Send i) sock);
          (2, map (fun n -> Pass n) (int_bound 20));
          (3, map (fun i -> Take i) sock);
        ])
  in
  QCheck.Test.make ~name:"epoll counts and readiness" ~count:200
    (QCheck.make
       ~print:(fun ops -> String.concat "; " (List.map show_sock_op ops))
       QCheck.Gen.(list_size (int_range 1 80) op))
    (fun ops ->
      let engine = Engine.create () in
      let pairs = Array.init nsock (fun _ -> make_pair engine) in
      let server i = snd pairs.(i) in
      let polls = [| Socket.Epoll.create (); Socket.Epoll.create () |] in
      for i = 0 to nsock - 1 do
        Socket.Epoll.add polls.(i mod 2) (server i)
      done;
      let consistent () =
        List.for_all
          (fun k ->
            let mine = List.filter (fun i -> i mod 2 = k) (List.init nsock Fun.id) in
            let queued = List.fold_left (fun acc i -> acc + Socket.pending (server i)) 0 mine in
            let expected =
              List.rev_map server (List.filter (fun i -> Socket.pending (server i) > 0) mine)
            in
            let ready = Socket.Epoll.wait ~timeout:0.0 polls.(k) in
            Socket.Epoll.pending_total polls.(k) = queued
            && List.length ready = List.length expected
            && List.for_all2 ( == ) ready expected)
          [ 0; 1 ]
      in
      let ok = ref true in
      Engine.spawn engine (fun () ->
          List.iter
            (fun op ->
              (match op with
              | Send i -> Socket.send (fst pairs.(i)) ~bytes:64
              | Pass n -> Engine.wait (float_of_int n *. 1e-5)
              | Take i -> ignore (Socket.try_recv_msg (server i)));
              if not (consistent ()) then ok := false)
            ops);
      Engine.run engine;
      !ok && consistent ())

let () =
  Alcotest.run "net_storage"
    [
      ( "disk",
        [
          Alcotest.test_case "service times" `Quick test_disk_service_times;
          Alcotest.test_case "hdd queueing" `Quick test_disk_hdd_queueing;
          Alcotest.test_case "ssd channels" `Quick test_disk_ssd_parallel_channels;
          Alcotest.test_case "stats" `Quick test_disk_stats;
        ] );
      ( "nic",
        [
          Alcotest.test_case "serialisation" `Quick test_nic_serialisation_time;
          Alcotest.test_case "queueing" `Quick test_nic_queueing;
          Alcotest.test_case "stats" `Quick test_nic_stats;
        ] );
      ( "socket",
        [
          Alcotest.test_case "delivery" `Quick test_socket_delivery;
          Alcotest.test_case "bidirectional" `Quick test_socket_bidirectional;
          Alcotest.test_case "recv timed" `Quick test_socket_recv_timed;
          Alcotest.test_case "try_recv/pending" `Quick test_socket_try_recv_and_pending;
        ] );
      ( "epoll",
        [
          Alcotest.test_case "ready and wait" `Quick test_epoll_ready_and_wait;
          Alcotest.test_case "timeout" `Quick test_epoll_timeout;
          Alcotest.test_case "zero timeout polls" `Quick test_epoll_zero_timeout_polls;
          Alcotest.test_case "add while waiting" `Quick test_epoll_add_while_waiting;
          Alcotest.test_case "multiple endpoints" `Quick test_epoll_multiple_endpoints;
          Alcotest.test_case "single owner" `Quick test_epoll_single_owner;
          QCheck_alcotest.to_alcotest prop_epoll_counts_and_readiness;
        ] );
    ]
