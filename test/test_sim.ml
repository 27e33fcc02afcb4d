(* Tests for the discrete-event engine: virtual time, process semantics,
   synchronisation primitives. *)
open Ditto_sim

let check_float = Alcotest.(check (float 1e-9))

let run_collect f =
  let engine = Engine.create () in
  let log = ref [] in
  let emit tag = log := (tag, Engine.now engine) :: !log in
  f engine emit;
  Engine.run engine;
  List.rev !log

let test_time_advances () =
  let log =
    run_collect (fun engine emit ->
        Engine.spawn engine (fun () ->
            emit "start";
            Engine.wait 1.5;
            emit "mid";
            Engine.wait 0.5;
            emit "end"))
  in
  Alcotest.(check (list (pair string (float 1e-9))))
    "timeline"
    [ ("start", 0.0); ("mid", 1.5); ("end", 2.0) ]
    log

let test_fifo_same_time () =
  let log =
    run_collect (fun engine emit ->
        Engine.spawn engine (fun () -> emit "a");
        Engine.spawn engine (fun () -> emit "b");
        Engine.spawn engine (fun () -> emit "c"))
  in
  Alcotest.(check (list string)) "FIFO order" [ "a"; "b"; "c" ] (List.map fst log)

let test_interleaving () =
  let log =
    run_collect (fun engine emit ->
        Engine.spawn engine (fun () ->
            Engine.wait 1.0;
            emit "slow");
        Engine.spawn engine (fun () ->
            Engine.wait 0.25;
            emit "fast"))
  in
  Alcotest.(check (list string)) "ordered by time" [ "fast"; "slow" ] (List.map fst log)

let test_spawn_at () =
  let log =
    run_collect (fun engine emit -> Engine.spawn engine ~at:3.0 (fun () -> emit "later"))
  in
  check_float "starts at 3" 3.0 (snd (List.hd log))

let test_run_until () =
  let engine = Engine.create () in
  let fired = ref false in
  Engine.spawn engine (fun () ->
      Engine.wait 10.0;
      fired := true);
  Engine.run ~until:5.0 engine;
  Alcotest.(check bool) "event beyond limit dropped" false !fired;
  check_float "clock stopped at limit" 5.0 (Engine.now engine)

let test_negative_wait_clamped () =
  let log =
    run_collect (fun engine emit ->
        Engine.spawn engine (fun () ->
            Engine.wait (-5.0);
            emit "now"))
  in
  check_float "negative wait is zero" 0.0 (snd (List.hd log))

let test_fork () =
  let log =
    run_collect (fun engine emit ->
        Engine.spawn engine (fun () ->
            Engine.fork (fun () ->
                Engine.wait 1.0;
                emit "child");
            emit "parent"))
  in
  Alcotest.(check (list string)) "parent continues first" [ "parent"; "child" ]
    (List.map fst log)

let test_suspend_wake () =
  let engine = Engine.create () in
  let waker = ref None in
  let got = ref 0 in
  Engine.spawn engine (fun () -> got := Engine.suspend (fun w -> waker := Some w));
  Engine.spawn engine (fun () ->
      Engine.wait 2.0;
      match !waker with Some w -> Engine.wake w 99 | None -> Alcotest.fail "no waker");
  Engine.run engine;
  Alcotest.(check int) "woken with value" 99 !got

let test_double_wake_ignored () =
  let engine = Engine.create () in
  let waker = ref None in
  let count = ref 0 in
  Engine.spawn engine (fun () ->
      let v = Engine.suspend (fun w -> waker := Some w) in
      count := !count + v);
  Engine.spawn engine (fun () ->
      let w = Option.get !waker in
      Engine.wake w 1;
      Engine.wake w 100);
  Engine.run engine;
  Alcotest.(check int) "only first wake delivers" 1 !count

let test_suspend_timeout_fires () =
  let engine = Engine.create () in
  let result = ref (Some 0) in
  Engine.spawn engine (fun () -> result := Engine.suspend_timeout 1.0 (fun _ -> ()));
  Engine.run engine;
  Alcotest.(check bool) "timed out" true (!result = None)

let test_suspend_timeout_wakes () =
  let engine = Engine.create () in
  let result = ref None in
  let waker = ref None in
  Engine.spawn engine (fun () -> result := Engine.suspend_timeout 10.0 (fun w -> waker := Some w));
  Engine.spawn engine (fun () ->
      Engine.wait 0.5;
      Engine.wake (Option.get !waker) 7);
  Engine.run engine;
  Alcotest.(check bool) "woken before timeout" true (!result = Some 7)

(* [start] and [resume] run a process inside the current callback. At each
   instant a setup callback queues three current-instant events; the middle
   one starts (then resumes) the process, which must log between the other
   two and hand control back each time it parks. *)
let test_start_and_resume_in_place () =
  let engine = Engine.create () in
  let log = ref [] in
  let emit tag = log := Printf.sprintf "%s@%g" tag (Engine.now engine) :: !log in
  let parked = ref None in
  let park w = parked := Some w in
  let body () =
    emit "p0";
    Engine.suspend park;
    emit "p1";
    Engine.suspend park;
    emit "unreached"
  in
  let around at step =
    Engine.schedule engine at (fun () ->
        let now = Engine.now engine in
        Engine.schedule engine now (fun () -> emit "before");
        Engine.schedule engine now (fun () ->
            emit "cb<";
            step ();
            emit "cb>");
        Engine.schedule engine now (fun () -> emit "after"))
  in
  around 1.0 (fun () -> Engine.start engine body);
  around 2.0 (fun () ->
      let w = Option.get !parked in
      Engine.resume w ();
      (* woken already: the second resume must not run the process again *)
      Engine.resume w ());
  Engine.run engine;
  Alcotest.(check (list string))
    "in-place steps between the instant's ring entries"
    [
      "before@1"; "cb<@1"; "p0@1"; "cb>@1"; "after@1";
      "before@2"; "cb<@2"; "p1@2"; "cb>@2"; "after@2";
    ]
    (List.rev !log);
  Alcotest.(check int) "only callbacks are events" 8 (Engine.events_processed engine);
  Alcotest.(check int) "start counted once, resume never" 1 (Engine.processes_started engine);
  Alcotest.(check bool) "parked again on a fresh waker" false
    (Engine.is_woken (Option.get !parked))

(* A [suspend_timeout] waker still has its timer armed: [resume] refuses
   it, and the timer fires as if nothing had happened. *)
let test_resume_refuses_timed_waker () =
  let engine = Engine.create () in
  let waker = ref None and result = ref (Some ()) in
  Engine.spawn engine (fun () -> result := Engine.suspend_timeout 1.0 (fun w -> waker := Some w));
  Engine.schedule engine 0.5 (fun () ->
      Alcotest.check_raises "timed waker"
        (Invalid_argument "Engine.resume: waker has an armed timer") (fun () ->
          Engine.resume (Option.get !waker) ()));
  Engine.run engine;
  Alcotest.(check bool) "timer still fires" true (!result = None);
  check_float "at its deadline" 1.0 (Engine.now engine)

let test_ivar () =
  let engine = Engine.create () in
  let iv = Engine.Ivar.create () in
  let seen = ref [] in
  for i = 1 to 3 do
    Engine.spawn engine (fun () ->
        (* bind first: [::] must not snapshot [!seen] before the blocking read *)
        let v = Engine.Ivar.read iv in
        seen := (i, v) :: !seen)
  done;
  Engine.spawn engine (fun () ->
      Engine.wait 1.0;
      Engine.Ivar.fill iv "v");
  Engine.run engine;
  Alcotest.(check int) "all readers woken" 3 (List.length !seen);
  Alcotest.(check bool) "filled" true (Engine.Ivar.is_filled iv)

let test_ivar_double_fill () =
  let engine = Engine.create () in
  Engine.spawn engine (fun () ->
      let iv = Engine.Ivar.create () in
      Engine.Ivar.fill iv 1;
      Alcotest.check_raises "double fill" (Invalid_argument "Ivar.fill: already filled")
        (fun () -> Engine.Ivar.fill iv 2));
  Engine.run engine

let test_mailbox_fifo () =
  let engine = Engine.create () in
  let m = Engine.Mailbox.create () in
  let got = ref [] in
  Engine.spawn engine (fun () ->
      for _ = 1 to 3 do
        got := Engine.Mailbox.recv m :: !got
      done);
  Engine.spawn engine (fun () ->
      Engine.Mailbox.send m 1;
      Engine.Mailbox.send m 2;
      Engine.Mailbox.send m 3);
  Engine.run engine;
  Alcotest.(check (list int)) "fifo" [ 1; 2; 3 ] (List.rev !got)

let test_mailbox_blocking_recv () =
  let engine = Engine.create () in
  let m = Engine.Mailbox.create () in
  let at = ref 0.0 in
  Engine.spawn engine (fun () ->
      ignore (Engine.Mailbox.recv m);
      at := Engine.now engine);
  Engine.spawn engine (fun () ->
      Engine.wait 4.0;
      Engine.Mailbox.send m ());
  Engine.run engine;
  check_float "recv completed at send time" 4.0 !at

let test_mailbox_try_recv () =
  let engine = Engine.create () in
  Engine.spawn engine (fun () ->
      let m = Engine.Mailbox.create () in
      Alcotest.(check (option int)) "empty" None (Engine.Mailbox.try_recv m);
      Engine.Mailbox.send m 5;
      Alcotest.(check int) "length" 1 (Engine.Mailbox.length m);
      Alcotest.(check (option int)) "take" (Some 5) (Engine.Mailbox.try_recv m));
  Engine.run engine

let test_mailbox_recv_timeout () =
  let engine = Engine.create () in
  let r = ref (Some 1) in
  Engine.spawn engine (fun () ->
      let m : int Engine.Mailbox.m = Engine.Mailbox.create () in
      r := Engine.Mailbox.recv_timeout m 0.5);
  Engine.run engine;
  Alcotest.(check (option int)) "timeout returns None" None !r

let test_resource_serialises () =
  let engine = Engine.create () in
  let r = Engine.Resource.create 1 in
  let finish = ref [] in
  for i = 1 to 3 do
    Engine.spawn engine (fun () ->
        Engine.Resource.with_resource r (fun () -> Engine.wait 1.0);
        finish := (i, Engine.now engine) :: !finish)
  done;
  Engine.run engine;
  let times = List.rev_map snd !finish |> List.sort compare in
  Alcotest.(check (list (float 1e-9))) "serialised" [ 1.0; 2.0; 3.0 ] times

let test_resource_parallel () =
  let engine = Engine.create () in
  let r = Engine.Resource.create 3 in
  let finish = ref [] in
  for _ = 1 to 3 do
    Engine.spawn engine (fun () ->
        Engine.Resource.with_resource r (fun () -> Engine.wait 1.0);
        finish := Engine.now engine :: !finish)
  done;
  Engine.run engine;
  List.iter (fun t -> check_float "all parallel" 1.0 t) !finish

let test_resource_queue_length () =
  let engine = Engine.create () in
  let r = Engine.Resource.create 1 in
  Engine.spawn engine (fun () -> Engine.Resource.with_resource r (fun () -> Engine.wait 5.0));
  Engine.spawn engine (fun () -> Engine.Resource.with_resource r (fun () -> ()));
  Engine.spawn engine (fun () ->
      Engine.wait 1.0;
      Alcotest.(check int) "one waiter" 1 (Engine.Resource.queue_length r);
      Alcotest.(check int) "none available" 0 (Engine.Resource.available r));
  Engine.run engine

let test_resource_release_on_exception () =
  let engine = Engine.create () in
  let r = Engine.Resource.create 1 in
  let ok = ref false in
  Engine.spawn engine (fun () ->
      (try Engine.Resource.with_resource r (fun () -> raise Exit) with Exit -> ());
      Engine.Resource.acquire r;
      ok := true;
      Engine.Resource.release r);
  Engine.run engine;
  Alcotest.(check bool) "released after exception" true !ok

let test_events_processed () =
  let engine = Engine.create () in
  Engine.spawn engine (fun () -> Engine.wait 1.0);
  Engine.run engine;
  Alcotest.(check bool) "counted" true (Engine.events_processed engine >= 2)

(* {1 Dispatch order}

   A seeded mix of every way an event enters the queue: zero and non-zero
   waits, [fork], [schedule], [spawn ~at], [suspend_timeout] both beaten
   and expired, [Mailbox.recv_timeout] and a contended [Resource]. Each
   process draws its next action from one shared RNG in dispatch order, so
   any change to the order of events changes the (time, process, step)
   trace. Durations are multiples of 0.25 ms so that events tie often. *)
let dispatch_mix () =
  let engine = Engine.create () in
  let rng = Ditto_util.Rng.create 42 in
  let buf = Buffer.create 65536 in
  let log at p step = Printf.bprintf buf "%h %d %d\n" at p step in
  let mb : int Engine.Mailbox.m = Engine.Mailbox.create () in
  let res = Engine.Resource.create 2 in
  let parked : unit Engine.waker Queue.t = Queue.create () in
  let tick () = float_of_int (Ditto_util.Rng.int rng 4) *. 0.25e-3 in
  let wake_parked () =
    match Queue.take_opt parked with Some w -> Engine.wake w () | None -> ()
  in
  let rec proc p step =
    if step < 40 then begin
      log (Engine.now engine) p step;
      (match Ditto_util.Rng.int rng 8 with
      | 0 -> Engine.wait 0.0
      | 1 -> Engine.wait (tick ())
      | 2 ->
          let child = (100 * (p + 1)) + step in
          Engine.fork (fun () ->
              log (Engine.now engine) child 0;
              Engine.wait (tick ());
              log (Engine.now engine) child 1)
      | 3 ->
          Engine.schedule engine
            (Engine.now engine +. tick ())
            (fun () ->
              log (Engine.now engine) (-p - 1) step;
              if Ditto_util.Rng.int rng 3 = 0 then wake_parked ())
      | 4 -> (
          match Engine.suspend_timeout (0.1e-3 +. tick ()) (fun w -> Queue.push w parked) with
          | Some () -> log (Engine.now engine) p 1000
          | None -> log (Engine.now engine) p 1001)
      | 5 -> (
          match Engine.Mailbox.recv_timeout mb (0.1e-3 +. tick ()) with
          | Some v -> log (Engine.now engine) p (2000 + v)
          | None -> log (Engine.now engine) p 2999)
      | 6 -> Engine.Mailbox.send mb step
      | _ -> Engine.Resource.with_resource res (fun () -> Engine.wait (tick ())));
      proc p (step + 1)
    end
  in
  (* A long timeout, parked first and so beaten first: its deadline is the
     latest of the run and decides the final clock. *)
  Engine.spawn engine (fun () ->
      match Engine.suspend_timeout 5.0 (fun w -> Queue.push w parked) with
      | Some () -> log (Engine.now engine) 99 1000
      | None -> log (Engine.now engine) 99 1001);
  for p = 0 to 7 do
    Engine.spawn engine ~at:(float_of_int p *. 0.1e-3) (fun () -> proc p 0)
  done;
  Engine.spawn engine (fun () ->
      for _ = 1 to 12 do
        Engine.wait (tick ());
        wake_parked ()
      done);
  Engine.run engine;
  (Digest.to_hex (Digest.string (Buffer.contents buf)), Engine.now engine)

(* Pinned from the heap that kept beaten timeouts queued as no-op events:
   cancelling them must not move any other event, nor the final clock (5.0
   is the deadline of the long timeout beaten first). *)
let test_dispatch_order_pinned () =
  let digest, final = dispatch_mix () in
  Alcotest.(check string) "trace digest" "ac91225e1b7955c2594bbc814e30477d" digest;
  Alcotest.(check (float 0.0)) "final clock" 5.0 final

(* A beaten timeout leaves the queue at once: it is neither executed nor
   counted, and only live events reach the high-water mark. The clock still
   ends at the cancelled deadline, as when the timer ran as a no-op. *)
let test_beaten_timeout_cancelled () =
  let engine = Engine.create () in
  let waker = ref None in
  Engine.spawn engine (fun () ->
      ignore (Engine.suspend_timeout 10.0 (fun w -> waker := Some w)));
  Engine.spawn engine (fun () ->
      Engine.wait 0.5;
      Engine.wake (Option.get !waker) ());
  Engine.run engine;
  (* two starts, the waker's wait, the timeout's inner wake and the resume *)
  Alcotest.(check int) "cancelled timer not processed" 5 (Engine.events_processed engine);
  check_float "clock ends at the cancelled deadline" 10.0 (Engine.now engine);
  let engine = Engine.create () in
  let waker = ref None and last_deadline = ref 0.0 in
  Engine.spawn engine (fun () ->
      for _ = 1 to 100 do
        last_deadline := Engine.now engine +. 10.0;
        ignore (Engine.suspend_timeout 10.0 (fun w -> waker := Some w))
      done);
  Engine.spawn engine (fun () ->
      for _ = 1 to 100 do
        Engine.wait 0.01;
        Engine.wake (Option.get !waker) ()
      done);
  Engine.run engine;
  Alcotest.(check int) "only live events peak" 2 (Engine.peak_live_events engine);
  Alcotest.(check int) "no timer processed" 302 (Engine.events_processed engine);
  check_float "clock ends at the last cancelled deadline" !last_deadline (Engine.now engine)

let () =
  Alcotest.run "sim"
    [
      ( "engine",
        [
          Alcotest.test_case "time advances" `Quick test_time_advances;
          Alcotest.test_case "fifo same time" `Quick test_fifo_same_time;
          Alcotest.test_case "interleaving" `Quick test_interleaving;
          Alcotest.test_case "spawn at" `Quick test_spawn_at;
          Alcotest.test_case "run until" `Quick test_run_until;
          Alcotest.test_case "negative wait" `Quick test_negative_wait_clamped;
          Alcotest.test_case "fork" `Quick test_fork;
          Alcotest.test_case "events processed" `Quick test_events_processed;
        ] );
      ( "suspend",
        [
          Alcotest.test_case "suspend/wake" `Quick test_suspend_wake;
          Alcotest.test_case "double wake" `Quick test_double_wake_ignored;
          Alcotest.test_case "timeout fires" `Quick test_suspend_timeout_fires;
          Alcotest.test_case "timeout beaten" `Quick test_suspend_timeout_wakes;
          Alcotest.test_case "beaten timeout cancelled" `Quick test_beaten_timeout_cancelled;
          Alcotest.test_case "start and resume in place" `Quick test_start_and_resume_in_place;
          Alcotest.test_case "resume refuses a timed waker" `Quick test_resume_refuses_timed_waker;
        ] );
      ("dispatch", [ Alcotest.test_case "order pinned" `Quick test_dispatch_order_pinned ]);
      ( "ivar",
        [
          Alcotest.test_case "broadcast" `Quick test_ivar;
          Alcotest.test_case "double fill" `Quick test_ivar_double_fill;
        ] );
      ( "mailbox",
        [
          Alcotest.test_case "fifo" `Quick test_mailbox_fifo;
          Alcotest.test_case "blocking recv" `Quick test_mailbox_blocking_recv;
          Alcotest.test_case "try recv" `Quick test_mailbox_try_recv;
          Alcotest.test_case "recv timeout" `Quick test_mailbox_recv_timeout;
        ] );
      ( "resource",
        [
          Alcotest.test_case "serialises" `Quick test_resource_serialises;
          Alcotest.test_case "parallel" `Quick test_resource_parallel;
          Alcotest.test_case "queue length" `Quick test_resource_queue_length;
          Alcotest.test_case "release on exception" `Quick test_resource_release_on_exception;
        ] );
    ]
