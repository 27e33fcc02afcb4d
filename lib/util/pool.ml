type t = {
  queue : (unit -> unit) Queue.t;
  mutex : Mutex.t;
  work_available : Condition.t;
  mutable stop : bool;
  mutable domains : unit Domain.t list;
  pool_size : int;
}

(* Process-wide instrumentation. The counters are plain atomics bumped
   once per task (tasks are whole pipeline runs, so this is far off the
   hot path); the hook lets a higher layer (Ditto_obs) wrap tasks at
   submission time without this library depending on it. Busy/idle time
   is kept in integer microseconds so it can be accumulated with
   [fetch_and_add]. *)
type stats = {
  tasks_queued : int;
  tasks_stolen : int;
  tasks_by_workers : int;
  busy_seconds : float;
  idle_seconds : float;
}

let n_queued = Atomic.make 0
let n_stolen = Atomic.make 0
let n_by_workers = Atomic.make 0
let busy_us = Atomic.make 0
let idle_us = Atomic.make 0

let stats () =
  {
    tasks_queued = Atomic.get n_queued;
    tasks_stolen = Atomic.get n_stolen;
    tasks_by_workers = Atomic.get n_by_workers;
    busy_seconds = float_of_int (Atomic.get busy_us) *. 1e-6;
    idle_seconds = float_of_int (Atomic.get idle_us) *. 1e-6;
  }

(* Time one pool-executed application and charge it to [busy_seconds],
   whichever path ran it (worker, helping submitter, or the sequential
   fallbacks) — on a single-core host the bench's parallel-efficiency
   figure would otherwise read zero. *)
let timed f x =
  let t0 = Unix.gettimeofday () in
  Fun.protect
    ~finally:(fun () ->
      let dt = Unix.gettimeofday () -. t0 in
      ignore (Atomic.fetch_and_add busy_us (int_of_float (dt *. 1e6))))
    (fun () -> f x)

let task_hook : ((unit -> unit) -> unit -> unit) ref = ref (fun task -> task)
let set_task_hook f = task_hook := f

let default_size () =
  match Sys.getenv_opt "DITTO_DOMAINS" with
  | Some s -> (
      match int_of_string_opt (String.trim s) with
      | Some n -> max 1 n
      | None -> max 1 (Domain.recommended_domain_count () - 1))
  | None -> max 1 (Domain.recommended_domain_count () - 1)

let try_pop pool =
  Mutex.lock pool.mutex;
  let task = Queue.take_opt pool.queue in
  Mutex.unlock pool.mutex;
  task

(* Tasks wrap their own exception handling (see [map]); a raise escaping a
   task would otherwise kill the worker domain silently. *)
let run_task task = try task () with _ -> ()

let worker_loop pool =
  let continue = ref true in
  while !continue do
    Mutex.lock pool.mutex;
    if Queue.is_empty pool.queue && not pool.stop then begin
      let t0 = Unix.gettimeofday () in
      while Queue.is_empty pool.queue && not pool.stop do
        Condition.wait pool.work_available pool.mutex
      done;
      let dt = Unix.gettimeofday () -. t0 in
      ignore (Atomic.fetch_and_add idle_us (int_of_float (dt *. 1e6)))
    end;
    match Queue.take_opt pool.queue with
    | Some task ->
        Mutex.unlock pool.mutex;
        Atomic.incr n_by_workers;
        run_task task
    | None ->
        (* queue empty and stop set *)
        Mutex.unlock pool.mutex;
        continue := false
  done

let create ?size () =
  let pool_size = max 1 (match size with Some n -> n | None -> default_size ()) in
  let pool =
    {
      queue = Queue.create ();
      mutex = Mutex.create ();
      work_available = Condition.create ();
      stop = false;
      domains = [];
      pool_size;
    }
  in
  (* The submitting domain counts toward the parallelism degree (it helps
     drain the queue in [map]), so spawn size - 1 workers. *)
  if pool_size > 1 then
    pool.domains <-
      List.init (pool_size - 1) (fun _ -> Domain.spawn (fun () -> worker_loop pool));
  pool

let size pool = pool.pool_size

let shutdown pool =
  Mutex.lock pool.mutex;
  let domains = pool.domains in
  pool.stop <- true;
  pool.domains <- [];
  Condition.broadcast pool.work_available;
  Mutex.unlock pool.mutex;
  List.iter Domain.join domains

(* Mirror the parallel path's failure semantics: run every task even after
   one raises, then re-raise the first (submission-order) exception at the
   join — so a failing batch has the same side effects at any pool size. *)
let sequential_map f xs =
  let first_error = ref None in
  let results =
    List.map
      (fun x ->
        try Some (timed f x)
        with e ->
          let bt = Printexc.get_raw_backtrace () in
          if !first_error = None then first_error := Some (e, bt);
          None)
      xs
  in
  match !first_error with
  | Some (e, bt) -> Printexc.raise_with_backtrace e bt
  | None -> List.map (function Some r -> r | None -> assert false) results

let map pool f xs =
  match xs with
  | [] -> []
  | [ x ] -> [ timed f x ]
  | xs when pool.pool_size <= 1 || pool.stop -> sequential_map f xs
  | xs ->
      let items = Array.of_list xs in
      let n = Array.length items in
      let results = Array.make n None in
      let first_error = Atomic.make None in
      let completed = Atomic.make 0 in
      let batch_mutex = Mutex.create () in
      let batch_done = Condition.create () in
      let run_one i =
        (try results.(i) <- Some (timed f items.(i))
         with e ->
           let bt = Printexc.get_raw_backtrace () in
           (* keep the submission-order-first error: index i only installs
              itself if no lower index has already failed; a later lower
              index overwrites via compare-and-swap retry *)
           let rec record () =
             match Atomic.get first_error with
             | Some (j, _, _) when j < i -> ()
             | cur ->
                 if not (Atomic.compare_and_set first_error cur (Some (i, e, bt))) then
                   record ()
           in
           record ());
        Mutex.lock batch_mutex;
        Atomic.incr completed;
        if Atomic.get completed = n then Condition.broadcast batch_done;
        Mutex.unlock batch_mutex
      in
      (* Wrap at submission, not execution: an instrumentation hook can
         capture the submitter's context (e.g. its open span) here and
         carry it to whichever domain runs the task. *)
      let wrap = !task_hook in
      Mutex.lock pool.mutex;
      for i = 0 to n - 1 do
        Queue.push (wrap (fun () -> run_one i)) pool.queue
      done;
      ignore (Atomic.fetch_and_add n_queued n);
      Condition.broadcast pool.work_available;
      Mutex.unlock pool.mutex;
      (* Help: drain tasks (ours or another batch's) while waiting, so a
         [map] issued from inside a worker task always makes progress. *)
      let rec help () =
        if Atomic.get completed < n then
          match try_pop pool with
          | Some task ->
              Atomic.incr n_stolen;
              run_task task;
              help ()
          | None ->
              Mutex.lock batch_mutex;
              while Atomic.get completed < n do
                Condition.wait batch_done batch_mutex
              done;
              Mutex.unlock batch_mutex
      in
      help ();
      (match Atomic.get first_error with
      | Some (_, e, bt) -> Printexc.raise_with_backtrace e bt
      | None -> ());
      Array.to_list
        (Array.map (function Some r -> r | None -> assert false) results)

let both pool f g =
  let a = ref None and b = ref None in
  let tasks =
    [ (fun () -> a := Some (f ())); (fun () -> b := Some (g ())) ]
  in
  ignore (map pool (fun task -> task ()) tasks);
  match (!a, !b) with
  | Some a, Some b -> (a, b)
  | _ -> assert false

let default_pool = ref None
let default_mutex = Mutex.create ()

let default () =
  Mutex.lock default_mutex;
  let pool =
    match !default_pool with
    | Some pool -> pool
    | None ->
        let pool = create () in
        default_pool := Some pool;
        at_exit (fun () -> shutdown pool);
        pool
  in
  Mutex.unlock default_mutex;
  pool
