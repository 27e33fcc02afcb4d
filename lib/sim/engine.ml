open Effect
open Effect.Deep

(* Pending events live in slots. A slot holds one callback and its argument,
   stored unapplied side by side, so the hot wake path never allocates a
   wrapper closure: [wake w v] stores [f] and [v] instead of building
   [fun () -> f v]. The pair is existential, so the two slot arrays are
   typed through [Obj]: [store] is the only writer and always writes a
   well-typed [('a -> unit) * 'a] pair into one slot.

   Future events sit in a binary min-heap ordered by (time, sequence). The
   keys live inline in flat [float]/[int] arrays next to the slot id, so a
   sift moves unboxed keys and ints and never touches the callbacks; the
   sequence number makes same-time events FIFO and the order total.
   [pos] maps a slot back to its heap index so a timer can be removed in
   O(log n). Removing an entry leaves the pop order of every other event
   unchanged, because (time, seq) is a total order.

   Events for the current instant bypass the heap into an int ring of
   slot ids: wake/fork chains enqueue at [now], and sifting them through
   the heap is pure churn. The clock cannot advance while the ring is
   non-empty (its entries are always at the global minimum time), and
   [pop] merges the ring against the heap top by (time, seq), so dispatch
   order is that of a heap-only queue.

   Slots, heap and ring share one capacity: together they never hold more
   entries than there are slots, so only slot exhaustion grows storage. *)

(* Float-only, so OCaml stores the fields flat and writing them does not
   box. [popped] is the time of the entry [pop] last returned; [cancelled]
   is the latest deadline among timers cancelled since the queue last
   drained. *)
type clock = { mutable now : float; mutable popped : float; mutable cancelled : float }

type t = {
  clock : clock;
  mutable fns : (Obj.t -> unit) array;  (** slot -> callback *)
  mutable args : Obj.t array;  (** slot -> argument *)
  mutable free : int array;  (** stack of free slots, [nfree] deep *)
  mutable nfree : int;
  mutable pos : int array;  (** slot -> heap index, -1 outside the heap *)
  mutable hat : float array;  (** heap index -> time *)
  mutable hseq : int array;  (** heap index -> sequence number *)
  mutable hslot : int array;  (** heap index -> slot *)
  mutable size : int;
  mutable ring : int array;  (** current-instant FIFO of slots, [rlen] from [rhead] *)
  mutable rseq : int array;  (** ring index -> sequence number *)
  mutable rhead : int;
  mutable rlen : int;
  mutable next_seq : int;
  mutable processed : int;
  mutable started : int;
  mutable peak_live : int;
}

let no_fn : Obj.t -> unit = ignore
let no_arg = Obj.repr ()

(* Largest live-event high-water mark seen by any engine in this process,
   folded in when [run] returns (not on the push hot path). *)
let global_peak = Atomic.make 0

let rec fold_global_peak peak =
  let cur = Atomic.get global_peak in
  if peak > cur && not (Atomic.compare_and_set global_peak cur peak) then fold_global_peak peak

let global_peak_heap_events () = Atomic.get global_peak

(* Power of two, so the ring index wraps with a mask. *)
let initial_slots = 64

let create_storage t cap =
  t.fns <- Array.make cap no_fn;
  t.args <- Array.make cap no_arg;
  (* Pop order 0, 1, 2, ...: low slots are reused first. *)
  t.free <- Array.init cap (fun i -> cap - 1 - i);
  t.nfree <- cap;
  t.pos <- Array.make cap (-1);
  t.hat <- Array.make cap 0.0;
  t.hseq <- Array.make cap 0;
  t.hslot <- Array.make cap 0;
  t.size <- 0;
  t.ring <- Array.make cap 0;
  t.rseq <- Array.make cap 0;
  t.rhead <- 0;
  t.rlen <- 0

let create () =
  let t =
    {
      clock = { now = 0.0; popped = 0.0; cancelled = neg_infinity };
      fns = [||];
      args = [||];
      free = [||];
      nfree = 0;
      pos = [||];
      hat = [||];
      hseq = [||];
      hslot = [||];
      size = 0;
      ring = [||];
      rseq = [||];
      rhead = 0;
      rlen = 0;
      next_seq = 0;
      processed = 0;
      started = 0;
      peak_live = 0;
    }
  in
  create_storage t initial_slots;
  t

(* Drop the event storage after a run so a pooled or still-referenced engine
   does not pin peak memory between clones. Counters survive for stats. *)
let reset t =
  fold_global_peak t.peak_live;
  create_storage t 16;
  t.clock.now <- 0.0;
  t.clock.cancelled <- neg_infinity

let now t = t.clock.now
let events_processed t = t.processed
let processes_started t = t.started
let peak_live_events t = t.peak_live

(* Every slot is in use, so the heap and ring hold [cap] entries between
   them; double all storage, unrolling the ring to start at index 0. *)
let grow t =
  let cap = Array.length t.fns in
  let cap' = 2 * cap in
  let extend a fill =
    let b = Array.make cap' fill in
    Array.blit a 0 b 0 cap;
    b
  in
  t.fns <- extend t.fns no_fn;
  t.args <- extend t.args no_arg;
  t.pos <- extend t.pos (-1);
  t.hat <- extend t.hat 0.0;
  t.hseq <- extend t.hseq 0;
  t.hslot <- extend t.hslot 0;
  let ring = Array.make cap' 0 and rseq = Array.make cap' 0 in
  for i = 0 to t.rlen - 1 do
    let j = (t.rhead + i) land (cap - 1) in
    ring.(i) <- t.ring.(j);
    rseq.(i) <- t.rseq.(j)
  done;
  t.ring <- ring;
  t.rseq <- rseq;
  t.rhead <- 0;
  t.free <- Array.init cap' (fun i -> cap' - 1 - i);
  t.nfree <- cap

let store : type a. t -> (a -> unit) -> a -> int =
 fun t fn arg ->
  if t.nfree = 0 then grow t;
  let n = t.nfree - 1 in
  t.nfree <- n;
  let s = t.free.(n) in
  t.fns.(s) <- (Obj.magic fn : Obj.t -> unit);
  t.args.(s) <- Obj.repr arg;
  s

let release t s =
  t.fns.(s) <- no_fn;
  t.args.(s) <- no_arg;
  t.free.(t.nfree) <- s;
  t.nfree <- t.nfree + 1

let[@inline] before (at : float) (seq : int) at' seq' = at < at' || (at = at' && seq < seq')

let[@inline] place t i at seq s =
  t.hat.(i) <- at;
  t.hseq.(i) <- seq;
  t.hslot.(i) <- s;
  t.pos.(s) <- i

(* Hole sifts: entries shift into the hole and the moving entry is written
   once, where it lands. *)
let sift_up t i at seq s =
  let hat = t.hat and hseq = t.hseq in
  let i = ref i in
  while
    !i > 0
    &&
    let p = (!i - 1) / 2 in
    before at seq hat.(p) hseq.(p)
  do
    let p = (!i - 1) / 2 in
    place t !i hat.(p) hseq.(p) t.hslot.(p);
    i := p
  done;
  place t !i at seq s

let sift_down t i at seq s =
  let hat = t.hat and hseq = t.hseq and n = t.size in
  let i = ref i and moving = ref true in
  while !moving do
    let l = (2 * !i) + 1 in
    if l >= n then moving := false
    else begin
      let r = l + 1 in
      let c = if r < n && before hat.(r) hseq.(r) hat.(l) hseq.(l) then r else l in
      if before hat.(c) hseq.(c) at seq then begin
        place t !i hat.(c) hseq.(c) t.hslot.(c);
        i := c
      end
      else moving := false
    end
  done;
  place t !i at seq s

(* Remove the heap entry at index [i]: the last entry fills the hole and
   sifts whichever way restores the order. *)
let heap_remove t i =
  t.pos.(t.hslot.(i)) <- -1;
  let n = t.size - 1 in
  t.size <- n;
  if i < n then begin
    let at = t.hat.(n) and seq = t.hseq.(n) and s = t.hslot.(n) in
    let p = (i - 1) / 2 in
    if i > 0 && before at seq t.hat.(p) t.hseq.(p) then sift_up t i at seq s
    else sift_down t i at seq s
  end

(* Queue [fn arg] at [at] (clamped to now). Returns the slot when the event
   went to the heap, -1 when it went to the current-instant ring. *)
let enqueue : type a. t -> float -> (a -> unit) -> a -> int =
 fun t at fn arg ->
  let s = store t fn arg in
  let seq = t.next_seq in
  t.next_seq <- seq + 1;
  let heap_slot =
    if at <= t.clock.now then begin
      let j = (t.rhead + t.rlen) land (Array.length t.ring - 1) in
      t.ring.(j) <- s;
      t.rseq.(j) <- seq;
      t.rlen <- t.rlen + 1;
      -1
    end
    else begin
      let i = t.size in
      t.size <- i + 1;
      sift_up t i at seq s;
      s
    end
  in
  let live = t.size + t.rlen in
  if live > t.peak_live then t.peak_live <- live;
  heap_slot

let push_app t at fn arg = ignore (enqueue t at fn arg)
let push t at fn = push_app t at fn ()

(* Drop a timer that was beaten: its slot is freed and its deadline noted
   for the final-clock rule in [settle]. *)
let cancel t s =
  let i = t.pos.(s) in
  let at = t.hat.(i) in
  if at > t.clock.cancelled then t.clock.cancelled <- at;
  heap_remove t i;
  release t s

(* Next slot in (time, seq) order, its time left in [clock.popped]; -1 when
   nothing is pending. A heap entry at the current instant with a lower
   sequence number predates everything in the ring; otherwise the ring
   front is the global minimum. *)
let pop t =
  let c = t.clock in
  if t.rlen > 0 && not (t.size > 0 && before t.hat.(0) t.hseq.(0) c.now t.rseq.(t.rhead)) then begin
    let s = t.ring.(t.rhead) in
    t.rhead <- (t.rhead + 1) land (Array.length t.ring - 1);
    t.rlen <- t.rlen - 1;
    c.popped <- c.now;
    s
  end
  else if t.size > 0 then begin
    let s = t.hslot.(0) in
    c.popped <- t.hat.(0);
    heap_remove t 0;
    s
  end
  else -1

(* The queue has drained. The clock ends where it would have if every
   cancelled timer had run as a no-op at its deadline: at the latest of
   them, capped at [until] like any other event. *)
let settle t until =
  let c = t.clock in
  let last = Float.min c.cancelled until in
  if last > c.now then c.now <- last;
  c.cancelled <- neg_infinity

let schedule t at fn = push t at fn

let every t ~start ~period ~until f =
  if not (period > 0.0) then invalid_arg "Engine.every: period must be positive";
  (* tick times are start + k*period, recomputed from k each arm, so a
     long chain of ticks carries no accumulated float error *)
  let rec arm k =
    let at = start +. (float_of_int k *. period) in
    if at <= until then
      push t at (fun () ->
          f at;
          arm (k + 1))
  in
  arm 0

(* [timer] is the slot of the pending timeout a [suspend_timeout] armed
   for this waker, or -1. *)
type 'a waker = {
  engine : t;
  mutable resume : 'a -> unit;
  mutable woken : bool;
  mutable timer : int;
}

type _ Effect.t +=
  | Wait : float -> unit Effect.t
  | Suspend : ('a waker -> unit) -> 'a Effect.t
  | Fork : (unit -> unit) -> unit Effect.t

let rec exec t f =
  t.started <- t.started + 1;
  match_with f ()
    {
      retc = ignore;
      exnc = raise;
      effc =
        (fun (type a) (eff : a Effect.t) ->
          match eff with
          | Wait d ->
              Some
                (fun (k : (a, _) continuation) ->
                  let d = Float.max 0.0 d in
                  push_app t (t.clock.now +. d) (fun k -> continue k ()) k)
          | Fork g ->
              Some
                (fun (k : (a, _) continuation) ->
                  push_app t t.clock.now (exec t) g;
                  continue k ())
          | Suspend register ->
              Some
                (fun (k : (a, _) continuation) ->
                  register { engine = t; resume = (fun v -> continue k v); woken = false; timer = -1 })
          | _ -> None);
    }

let spawn t ?at f =
  let at = match at with Some a -> a | None -> t.clock.now in
  push_app t at (exec t) f

let start t f = exec t f

let events_counter = Ditto_obs.Obs.Metrics.counter "sim.events"

let run_loop ~until t =
  let c = t.clock in
  let running = ref true in
  while !running do
    let s = pop t in
    if s < 0 then begin
      settle t until;
      running := false
    end
    else if c.popped > until then begin
      (* Drop the event; the clock stops at the limit. Runs with [until]
         are terminal. *)
      release t s;
      c.now <- until;
      running := false
    end
    else begin
      c.now <- c.popped;
      t.processed <- t.processed + 1;
      let fn = t.fns.(s) and arg = t.args.(s) in
      release t s;
      fn arg
    end
  done

let run ?(until = infinity) t =
  let finish_peak () = fold_global_peak t.peak_live in
  if not (Ditto_obs.Obs.enabled ()) then (
    run_loop ~until t;
    finish_peak ())
  else begin
    let before = t.processed in
    let finish () =
      finish_peak ();
      let events = t.processed - before in
      Ditto_obs.Obs.Metrics.add events_counter events;
      Ditto_obs.Obs.Span.add_attr "events" (Int events);
      Ditto_obs.Obs.Span.add_attr "sim_time" (Float t.clock.now)
    in
    Ditto_obs.Obs.Span.with_span ~name:"sim.run" (fun () ->
        match run_loop ~until t with
        | () -> finish ()
        | exception e ->
            finish ();
            raise e)
  end

let wait d = perform (Wait d)

let wake w v =
  if not w.woken then begin
    w.woken <- true;
    let e = w.engine in
    if w.timer >= 0 then begin
      cancel e w.timer;
      w.timer <- -1
    end;
    let f = w.resume in
    w.resume <- ignore;
    push_app e e.clock.now f v
  end

(* [wake] without the event: the process runs now, inside the caller, until
   it next blocks. A [suspend_timeout] waker resumes through its outer
   waker's event, so it is refused rather than half-resumed. *)
let resume w v =
  if not w.woken then begin
    if w.timer >= 0 then invalid_arg "Engine.resume: waker has an armed timer";
    w.woken <- true;
    let f = w.resume in
    w.resume <- ignore;
    f v
  end

let is_woken w = w.woken
let suspend register = perform (Suspend register)

let suspend_timeout d register =
  suspend (fun (outer : 'a option waker) ->
      let e = outer.engine in
      let inner = { engine = e; resume = (fun v -> wake outer (Some v)); woken = false; timer = -1 } in
      register inner;
      let at = e.clock.now +. d in
      if inner.woken then begin
        (* Woken inside [register]: the timer is beaten before it is armed. *)
        if at > e.clock.cancelled then e.clock.cancelled <- at
      end
      else
        inner.timer <-
          enqueue e at
            (fun () ->
              (* Only a timer queued for the current instant can still find
                 its waker woken; a beaten heap timer was cancelled. *)
              if not inner.woken then begin
                inner.woken <- true;
                inner.timer <- -1;
                inner.resume <- ignore;
                wake outer None
              end)
            ())

let fork f = perform (Fork f)

module Ivar = struct
  type 'a v = { mutable value : 'a option; mutable readers : 'a waker list }

  let create () = { value = None; readers = [] }

  let fill v x =
    match v.value with
    | Some _ -> invalid_arg "Ivar.fill: already filled"
    | None ->
        v.value <- Some x;
        List.iter (fun w -> wake w x) v.readers;
        v.readers <- []

  let read v =
    match v.value with
    | Some x -> x
    | None -> suspend (fun w -> v.readers <- w :: v.readers)

  let is_filled v = v.value <> None
end

module Mailbox = struct
  type 'a m = { q : 'a Queue.t; waiters : 'a waker Queue.t }

  let create () = { q = Queue.create (); waiters = Queue.create () }

  let rec deliver m v =
    match Queue.take_opt m.waiters with
    | None -> Queue.push v m.q
    | Some w -> if is_woken w then deliver m v else wake w v

  let send m v = deliver m v

  let recv m =
    match Queue.take_opt m.q with
    | Some v -> v
    | None -> suspend (fun w -> Queue.push w m.waiters)

  let try_recv m = Queue.take_opt m.q

  let recv_timeout m d =
    match Queue.take_opt m.q with
    | Some v -> Some v
    | None -> suspend_timeout d (fun w -> Queue.push w m.waiters)

  let length m = Queue.length m.q
end

module Resource = struct
  type r = { cap : int; mutable in_use : int; waiters : unit waker Queue.t }

  let create cap =
    if cap <= 0 then invalid_arg "Resource.create: capacity must be positive";
    { cap; in_use = 0; waiters = Queue.create () }

  let capacity r = r.cap
  let available r = r.cap - r.in_use

  let acquire r =
    if r.in_use < r.cap then r.in_use <- r.in_use + 1
    else suspend (fun w -> Queue.push w r.waiters)

  (* On release, hand the slot directly to the next live waiter so [in_use]
     stays constant across the transfer; otherwise free the slot. *)
  let rec release r =
    match Queue.take_opt r.waiters with
    | None -> r.in_use <- r.in_use - 1
    | Some w -> if is_woken w then release r else wake w ()

  let with_resource r f =
    acquire r;
    match f () with
    | result ->
        release r;
        result
    | exception e ->
        release r;
        raise e

  let queue_length r = Queue.fold (fun acc w -> if is_woken w then acc else acc + 1) 0 r.waiters
end
