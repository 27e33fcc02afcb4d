(* Tests for the OS layer: syscall kernel streams, page cache, scheduler. *)
open Ditto_os
open Ditto_sim

let check_close msg tolerance expected actual =
  if Float.abs (expected -. actual) > tolerance then
    Alcotest.failf "%s: expected %g within %g, got %g" msg expected tolerance actual

(* {1 Syscall} *)

let test_syscall_names_unique () =
  let kinds =
    [
      Syscall.Pread { bytes = 1; random = true };
      Syscall.Pwrite { bytes = 1 };
      Syscall.Sock_read { bytes = 1 };
      Syscall.Sock_write { bytes = 1 };
      Syscall.Epoll_wait;
      Syscall.Accept;
      Syscall.Futex_wait;
      Syscall.Futex_wake;
      Syscall.Mmap { bytes = 1 };
      Syscall.Clone;
      Syscall.Nanosleep { seconds = 1.0 };
      Syscall.Gettime;
    ]
  in
  let names = List.map Syscall.name kinds in
  Alcotest.(check int) "unique" (List.length names) (List.length (List.sort_uniq compare names))

let test_syscall_blocking_classification () =
  Alcotest.(check bool) "epoll blocks" true (Syscall.is_blocking Syscall.Epoll_wait);
  Alcotest.(check bool) "pread does not" false
    (Syscall.is_blocking (Syscall.Pread { bytes = 4096; random = true }))

let test_syscall_path_lengths_ordered () =
  Alcotest.(check bool) "sendmsg > gettime" true
    (Syscall.path_insts (Syscall.Sock_write { bytes = 100 }) > Syscall.path_insts Syscall.Gettime)

let test_kernel_streams_structure () =
  let streams = Syscall.Kernel.streams (Syscall.Sock_read { bytes = 4096 }) in
  Alcotest.(check bool) "path + copy" true (List.length streams = 2);
  let path, iters = List.hd streams in
  Alcotest.(check bool) "path has templates" true (path.Ditto_isa.Block.static_insts > 0);
  Alcotest.(check bool) "iterations positive" true (iters > 0)

let test_kernel_streams_memoised () =
  let a = Syscall.Kernel.streams Syscall.Epoll_wait in
  let b = Syscall.Kernel.streams Syscall.Epoll_wait in
  Alcotest.(check bool) "same physical value" true (a == b)

let test_kernel_distinct_code_windows () =
  let a, _ = List.hd (Syscall.Kernel.streams Syscall.Epoll_wait) in
  let b, _ = List.hd (Syscall.Kernel.streams (Syscall.Sock_write { bytes = 64 })) in
  Alcotest.(check bool) "different kernel text regions" true
    (a.Ditto_isa.Block.code_base <> b.Ditto_isa.Block.code_base)

let test_housekeeping () =
  let block, iters = Syscall.Kernel.housekeeping () in
  Alcotest.(check bool) "nonempty" true (block.Ditto_isa.Block.static_insts > 0 && iters >= 1)

(* {1 Page cache} *)

let test_page_cache_miss_then_hit () =
  let pc = Page_cache.create ~capacity_bytes:(1 lsl 20) in
  let missed = Page_cache.read pc ~offset:0 ~bytes:8192 in
  Alcotest.(check int) "cold read misses both pages" 8192 missed;
  let again = Page_cache.read pc ~offset:0 ~bytes:8192 in
  Alcotest.(check int) "warm read free" 0 again

let test_page_cache_partial () =
  let pc = Page_cache.create ~capacity_bytes:(1 lsl 20) in
  ignore (Page_cache.read pc ~offset:0 ~bytes:4096);
  let missed = Page_cache.read pc ~offset:0 ~bytes:8192 in
  Alcotest.(check int) "only the second page fetched" 4096 missed

let test_page_cache_lru_eviction () =
  let pc = Page_cache.create ~capacity_bytes:(4 * 4096) in
  ignore (Page_cache.read pc ~offset:0 ~bytes:(4 * 4096));
  (* Touch page 0 so page 1 is LRU, then insert a new page. *)
  ignore (Page_cache.read pc ~offset:0 ~bytes:1);
  ignore (Page_cache.read pc ~offset:(4 * 4096) ~bytes:1);
  Alcotest.(check int) "page 0 still resident" 0 (Page_cache.read pc ~offset:0 ~bytes:1);
  Alcotest.(check int) "page 1 evicted" 4096 (Page_cache.read pc ~offset:4096 ~bytes:1)

let test_page_cache_stats () =
  let pc = Page_cache.create ~capacity_bytes:(1 lsl 20) in
  ignore (Page_cache.read pc ~offset:0 ~bytes:4096);
  ignore (Page_cache.read pc ~offset:0 ~bytes:4096);
  Alcotest.(check int) "lookups" 2 (Page_cache.lookups pc);
  Alcotest.(check int) "misses" 1 (Page_cache.misses pc);
  Alcotest.(check (float 1e-9)) "hit rate" 0.5 (Page_cache.hit_rate pc);
  Page_cache.reset_stats pc;
  Alcotest.(check int) "stats reset" 0 (Page_cache.lookups pc)

let test_page_cache_flush () =
  let pc = Page_cache.create ~capacity_bytes:(1 lsl 20) in
  ignore (Page_cache.read pc ~offset:0 ~bytes:4096);
  Page_cache.flush pc;
  Alcotest.(check int) "cold after flush" 4096 (Page_cache.read pc ~offset:0 ~bytes:4096)

let test_page_cache_zero_bytes () =
  let pc = Page_cache.create ~capacity_bytes:4096 in
  Alcotest.(check int) "empty read" 0 (Page_cache.read pc ~offset:0 ~bytes:0)

(* Reference model: the LRU as a most-recent-first list of page ids. *)
module Lru_model = struct
  type t = { cap : int; mutable pages : int list; mutable lookups : int; mutable misses : int }

  let create cap = { cap; pages = []; lookups = 0; misses = 0 }

  let touch m p =
    m.lookups <- m.lookups + 1;
    if List.mem p m.pages then begin
      m.pages <- p :: List.filter (( <> ) p) m.pages;
      true
    end
    else begin
      m.misses <- m.misses + 1;
      let kept =
        if List.length m.pages >= m.cap then List.filteri (fun i _ -> i < m.cap - 1) m.pages
        else m.pages
      in
      m.pages <- p :: kept;
      false
    end

  let read m ~offset ~bytes =
    if bytes <= 0 then 0
    else begin
      let missed = ref 0 in
      for p = offset / Page_cache.page_bytes to (offset + bytes - 1) / Page_cache.page_bytes do
        if not (touch m p) then incr missed
      done;
      !missed * Page_cache.page_bytes
    end
end

type pc_op = Read of int * int | Flush | Reset_stats

let show_pc_op = function
  | Read (offset, bytes) -> Printf.sprintf "read %d+%d" offset bytes
  | Flush -> "flush"
  | Reset_stats -> "reset_stats"

(* Apply [op] to both caches; false if the missed bytes or the stats
   diverge. *)
let pc_step pc model op =
  let same_result =
    match op with
    | Read (offset, bytes) ->
        Page_cache.read pc ~offset ~bytes = Lru_model.read model ~offset ~bytes
    | Flush ->
        Page_cache.flush pc;
        model.Lru_model.pages <- [];
        true
    | Reset_stats ->
        Page_cache.reset_stats pc;
        model.Lru_model.lookups <- 0;
        model.Lru_model.misses <- 0;
        true
  in
  same_result
  && Page_cache.lookups pc = model.Lru_model.lookups
  && Page_cache.misses pc = model.Lru_model.misses

(* Reads start anywhere in the first 64 pages and run up to three pages,
   so most straddle a page boundary; capacities of 1-64 pages (plus a
   sub-page remainder, which must round down) range from thrashing to
   holding the whole span. *)
let prop_page_cache_matches_model =
  let page = Page_cache.page_bytes in
  let op =
    QCheck.Gen.(
      frequency
        [
          ( 18,
            map2
              (fun offset bytes -> Read (offset, bytes))
              (int_range 0 ((64 * page) - 1))
              (int_range 0 (3 * page)) );
          (1, return Flush);
          (1, return Reset_stats);
        ])
  in
  let case =
    QCheck.make
      ~print:(fun (cap, extra, ops) ->
        Printf.sprintf "capacity %d pages + %d bytes: %s" cap extra
          (String.concat "; " (List.map show_pc_op ops)))
      QCheck.Gen.(
        triple (int_range 1 64) (int_range 0 (page - 1)) (list_size (int_range 1 300) op))
  in
  QCheck.Test.make ~name:"page cache matches the list LRU model" ~count:300 case
    (fun (cap, extra, ops) ->
      let pc = Page_cache.create ~capacity_bytes:((cap * page) + extra) in
      let model = Lru_model.create cap in
      List.for_all (pc_step pc model) ops)

(* One long run at 4,096 pages over 25,000 distinct pages: the index and
   the slot arrays grow well past their initial size, and every miss after
   the first 4,096 evicts, so removals from the index shift entries back. *)
let test_page_cache_long_run () =
  let page = Page_cache.page_bytes in
  let cap = 4096 and span = 25_000 in
  let pc = Page_cache.create ~capacity_bytes:(cap * page) in
  let model = Lru_model.create cap in
  let rng = Ditto_util.Rng.create 13 in
  let check op =
    if not (pc_step pc model op) then Alcotest.failf "diverged from the model at %s" (show_pc_op op)
  in
  (* A sequential sweep in 5-page reads touches every page once. *)
  for k = 0 to (span / 5) - 1 do
    check (Read (k * 5 * page, 5 * page))
  done;
  (* Random reads over the span, with a hot set that stays resident. *)
  for i = 1 to 10_000 do
    let offset =
      if i mod 3 = 0 then Ditto_util.Rng.int rng (256 * page)
      else Ditto_util.Rng.int rng (span * page)
    in
    check (Read (offset, 1 + Ditto_util.Rng.int rng (2 * page)))
  done;
  Alcotest.(check bool) "hits and misses both seen" true
    (Page_cache.misses pc > 0 && Page_cache.misses pc < Page_cache.lookups pc)

(* Page ids are non-negative: a negative offset is rejected before any
   page is touched. *)
let test_page_cache_negative_offset () =
  let pc = Page_cache.create ~capacity_bytes:(16 * 4096) in
  Alcotest.check_raises "negative offset" (Invalid_argument "Page_cache.read: negative offset")
    (fun () -> ignore (Page_cache.read pc ~offset:(-1) ~bytes:4096));
  Alcotest.check_raises "negative offset, empty read"
    (Invalid_argument "Page_cache.read: negative offset") (fun () ->
      ignore (Page_cache.read pc ~offset:(-8192) ~bytes:0));
  Alcotest.(check int) "nothing looked up" 0 (Page_cache.lookups pc);
  Alcotest.(check int) "page 0 still cold" 4096 (Page_cache.read pc ~offset:0 ~bytes:1)

(* {1 Scheduler} *)

let test_sched_single_thread_timing () =
  let engine = Engine.create () in
  let sched = Sched.create engine ~ncores:2 () in
  let finished = ref 0.0 in
  Engine.spawn engine (fun () ->
      Sched.run_oncpu sched ~thread:1 0.0105;
      finished := Engine.now engine);
  Engine.run engine;
  (* 10.5ms of work plus one context switch. *)
  check_close "duration" 1e-4 0.0105 !finished

let test_sched_contention () =
  let engine = Engine.create () in
  let sched = Sched.create engine ~ncores:1 ~ctx_switch_cost:0.0 () in
  let finish = ref [] in
  for i = 1 to 2 do
    Engine.spawn engine (fun () ->
        Sched.run_oncpu sched ~thread:i 0.010;
        finish := Engine.now engine :: !finish)
  done;
  Engine.run engine;
  let latest = List.fold_left Float.max 0.0 !finish in
  check_close "two 10ms jobs on one core" 1e-4 0.020 latest

let test_sched_parallel_cores () =
  let engine = Engine.create () in
  let sched = Sched.create engine ~ncores:2 ~ctx_switch_cost:0.0 () in
  let finish = ref [] in
  for i = 1 to 2 do
    Engine.spawn engine (fun () ->
        Sched.run_oncpu sched ~thread:i 0.010;
        finish := Engine.now engine :: !finish)
  done;
  Engine.run engine;
  List.iter (fun t -> check_close "parallel" 1e-4 0.010 t) !finish

let test_sched_fair_slicing () =
  (* With quantum slicing, a short job submitted alongside a long one
     should not wait for the long job to finish completely. *)
  let engine = Engine.create () in
  let sched = Sched.create engine ~ncores:1 ~quantum:1e-3 ~ctx_switch_cost:0.0 () in
  let short_done = ref infinity in
  Engine.spawn engine (fun () -> Sched.run_oncpu sched ~thread:1 0.050);
  Engine.spawn engine (fun () ->
      Sched.run_oncpu sched ~thread:2 0.001;
      short_done := Engine.now engine);
  Engine.run engine;
  Alcotest.(check bool) "short job preempts long one" true (!short_done < 0.010)

let test_sched_stats () =
  let engine = Engine.create () in
  let sched = Sched.create engine ~ncores:1 () in
  Engine.spawn engine (fun () -> Sched.run_oncpu sched ~thread:1 0.002);
  Engine.spawn engine (fun () -> Sched.run_oncpu sched ~thread:2 0.002);
  Engine.run engine;
  Alcotest.(check bool) "context switches counted" true (Sched.context_switches sched >= 2);
  Alcotest.(check bool) "busy time accumulated" true (Sched.busy_seconds sched >= 0.004);
  Alcotest.(check int) "ncores" 1 (Sched.ncores sched)

let () =
  Alcotest.run "os"
    [
      ( "syscall",
        [
          Alcotest.test_case "unique names" `Quick test_syscall_names_unique;
          Alcotest.test_case "blocking classes" `Quick test_syscall_blocking_classification;
          Alcotest.test_case "path ordering" `Quick test_syscall_path_lengths_ordered;
          Alcotest.test_case "stream structure" `Quick test_kernel_streams_structure;
          Alcotest.test_case "memoised" `Quick test_kernel_streams_memoised;
          Alcotest.test_case "distinct windows" `Quick test_kernel_distinct_code_windows;
          Alcotest.test_case "housekeeping" `Quick test_housekeeping;
        ] );
      ( "page_cache",
        [
          Alcotest.test_case "miss then hit" `Quick test_page_cache_miss_then_hit;
          Alcotest.test_case "partial" `Quick test_page_cache_partial;
          Alcotest.test_case "lru eviction" `Quick test_page_cache_lru_eviction;
          Alcotest.test_case "stats" `Quick test_page_cache_stats;
          Alcotest.test_case "flush" `Quick test_page_cache_flush;
          Alcotest.test_case "zero bytes" `Quick test_page_cache_zero_bytes;
          QCheck_alcotest.to_alcotest prop_page_cache_matches_model;
          Alcotest.test_case "long run vs model" `Slow test_page_cache_long_run;
          Alcotest.test_case "negative offset rejected" `Quick test_page_cache_negative_offset;
        ] );
      ( "sched",
        [
          Alcotest.test_case "single thread" `Quick test_sched_single_thread_timing;
          Alcotest.test_case "contention" `Quick test_sched_contention;
          Alcotest.test_case "parallel cores" `Quick test_sched_parallel_cores;
          Alcotest.test_case "fair slicing" `Quick test_sched_fair_slicing;
          Alcotest.test_case "stats" `Quick test_sched_stats;
        ] );
    ]
