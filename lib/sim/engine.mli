(** Discrete-event simulation engine with effect-based processes.

    Simulated entities (threads, NICs, disks, load generators) are ordinary
    OCaml functions that perform blocking operations — [wait], [suspend] —
    implemented with OCaml 5 effect handlers, so tier logic reads like the
    straight-line pseudo-code of Fig. 3 in the paper (epoll_wait; read;
    handle; sendmsg) while the engine interleaves processes in virtual time.

    Time is in seconds (float). The blocking operations must be performed
    from within a process spawned on the engine; a process reads the clock
    of the engine it runs on with {!now}. *)

type t
(** An engine instance: virtual clock plus pending-event queue. *)

val create : unit -> t
(** A fresh engine at time 0 with an empty queue. Event storage starts
    small and doubles as needed: the queue holds only live events, so its
    size follows the simulated concurrency (workers, connections, requests
    in flight), not the run length. *)

val reset : t -> unit
(** Drop the engine's event storage (slots, heap and current-instant ring,
    along with any events still pending) and rewind the clock, releasing
    peak memory once a run is over so pooled or still-referenced engines
    don't pin it between back-to-back clones. [events_processed] and
    {!peak_live_events} survive for reporting. *)

val now : t -> float
(** Current virtual time. *)

val schedule : t -> float -> (unit -> unit) -> unit
(** [schedule t at f] runs callback [f] at absolute time [at] (clamped to
    now). Callbacks may spawn processes and wake suspended ones. *)

val spawn : t -> ?at:float -> (unit -> unit) -> unit
(** Start a new process at absolute time [at] (default: now). *)

val start : t -> (unit -> unit) -> unit
(** [start t f] runs a new process [f] in place, inside the current
    callback, until it first blocks (or returns); no event is queued for
    its start. A process that serves a queue of work can thus take its
    first item inside the event that submitted it. *)

val every : t -> start:float -> period:float -> until:float -> (float -> unit) -> unit
(** [every t ~start ~period ~until f] runs callback [f at] at each tick
    [at = start + k * period] for [k = 0, 1, ...] while [at <= until].
    Tick times are computed from [k] (not by accumulating [period]) so
    long chains don't drift. Like {!schedule} callbacks, [f] runs outside
    process context: it must not perform engine effects; it receives the
    tick's virtual time as its argument.
    Raises [Invalid_argument] if [period] is not positive. *)

val run : ?until:float -> t -> unit
(** Drain the event queue, advancing the clock; stop early once the clock
    would exceed [until] (the first event beyond it is dropped, so a run
    with [until] is terminal). When the queue drains, the clock moves on to
    the latest deadline among timers that {!wake} cancelled, if that is
    later (capped at [until]) — the instant those timers would have
    reached as no-op events — so [now] after [run] does not depend on
    whether beaten timeouts were cancelled. *)

val events_processed : t -> int
(** Total events executed so far (for engine benchmarking). A
    {!suspend_timeout} timer that was beaten by a {!wake} is cancelled, not
    executed, and is not counted; neither are {!start} and {!resume}, which
    run a process inside the current event. *)

val processes_started : t -> int
(** Processes created so far by {!spawn}, {!fork} and {!start}. Each is a
    fiber stack the GC scans while it lives, so this counts what a model
    keeps as processes rather than as data. *)

val peak_live_events : t -> int
(** High-water mark of simultaneously pending events (heap + current-instant
    ring) over this engine's lifetime. Cancelled timers leave the queue at
    once, so only live events count. *)

val global_peak_heap_events : unit -> int
(** Largest {!peak_live_events} observed by any engine in this process
    (folded in when [run] returns or [reset] is called); exported by
    [bench --json] as [engine.peak_heap_events]. *)

(** {1 Operations available inside processes} *)

val wait : float -> unit
(** Block the calling process for a (non-negative) duration. *)

type 'a waker
(** One-shot resumption handle for a suspended process. *)

val wake : 'a waker -> 'a -> unit
(** Resume the suspended process with a value, at the engine's current
    time. Waking an already-woken waker is a no-op. Waking a
    {!suspend_timeout} waker cancels its pending timer in O(log n). *)

val resume : 'a waker -> 'a -> unit
(** [wake] in place: resume the suspended process with a value inside the
    caller (a callback, or another process), running it until it next
    blocks; no event is queued. A no-op on a waker that was already woken.
    Raises [Invalid_argument] on a {!suspend_timeout} waker, whose timer is
    still armed. *)

val is_woken : 'a waker -> bool

val suspend : ('a waker -> unit) -> 'a
(** [suspend register] parks the calling process and hands a waker to
    [register]; the process resumes when someone calls [wake]. *)

val suspend_timeout : float -> ('a waker -> unit) -> 'a option
(** Like [suspend], but resumes with [None] after the timeout if not woken
    earlier. A wake that beats the timeout removes the timer from the
    queue. *)

val fork : (unit -> unit) -> unit
(** Spawn a sibling process on the same engine, starting now. *)

(** {1 Synchronisation primitives} *)

module Ivar : sig
  (** Write-once cell: readers block until the value is set. *)

  type 'a v

  val create : unit -> 'a v
  val fill : 'a v -> 'a -> unit
  (** Raises [Invalid_argument] if already filled. *)

  val read : 'a v -> 'a
  (** Blocks until filled. *)

  val is_filled : 'a v -> bool
end

module Mailbox : sig
  (** Unbounded FIFO channel between processes. *)

  type 'a m

  val create : unit -> 'a m
  val send : 'a m -> 'a -> unit
  (** Never blocks; wakes one waiting receiver if any. *)

  val recv : 'a m -> 'a
  (** Blocks until a message is available. *)

  val recv_timeout : 'a m -> float -> 'a option
  val try_recv : 'a m -> 'a option
  val length : 'a m -> int
end

module Resource : sig
  (** Counted resource (semaphore) with FIFO waiters — models cores, disk
      channels, NIC transmit slots. *)

  type r

  val create : int -> r
  (** [create capacity]; capacity must be positive. *)

  val capacity : r -> int
  val available : r -> int
  val acquire : r -> unit
  (** Blocks until a unit is free. *)

  val release : r -> unit
  val with_resource : r -> (unit -> 'a) -> 'a
  val queue_length : r -> int
  (** Number of processes currently blocked in [acquire]. *)
end
