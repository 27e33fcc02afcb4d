(** Fixed-size domain pool for run-level parallelism.

    Ditto's workflow is embarrassingly parallel at the run granularity:
    independent apps being cloned, the actual/synthetic validation pair, and
    the candidate knob vectors of a speculative tuning iteration. Each
    {!Ditto_app.Runner.run} builds its own engine, RNG streams and hardware
    state, so whole runs can execute on separate domains without sharing
    mutable state — parallelism lives {e across} runs, never inside one, and
    results stay bit-identical to the sequential schedule.

    The pool is a classic work queue guarded by a mutex/condition pair, and
    {!map} is the one way to run work on it ({!both} is a two-task [map]).
    The submitting domain {e helps}: while waiting for its batch it drains
    tasks from the queue itself, so nested [map] calls (an app clone running
    on a worker spawns its own tuning candidates) cannot deadlock even when
    every worker is busy. *)

type t

val create : ?size:int -> unit -> t
(** [create ()] sizes the pool from the [DITTO_DOMAINS] environment
    variable when set (clamped to at least 1), otherwise
    [Domain.recommended_domain_count () - 1]. A pool of size [n] runs up to
    [n] tasks concurrently ([n - 1] worker domains plus the submitting
    domain). At size <= 1 no domains are spawned and {!map} degrades to
    [List.map] — the deterministic sequential baseline tests pin against. *)

val size : t -> int
(** Degree of parallelism (>= 1). *)

val map : t -> ('a -> 'b) -> 'a list -> 'b list
(** [map t f xs] applies [f] to every element, possibly concurrently, and
    returns the results in input order. If one or more applications raise,
    the batch still runs to completion and the first exception (in task
    submission order) is re-raised at the join point with its backtrace. *)

val both : t -> (unit -> 'a) -> (unit -> 'b) -> 'a * 'b
(** [both t f g] evaluates the two thunks, concurrently when the pool has
    capacity, and returns their results. *)

val shutdown : t -> unit
(** Drain queued tasks, stop the workers and join them. Idempotent. Calling
    {!map} after [shutdown] falls back to the sequential path. *)

val default : unit -> t
(** The process-wide shared pool, created on first use (and shut down via
    [at_exit]). All pipeline entry points use this when no explicit pool is
    given, so [DITTO_DOMAINS=1 bench/main.exe] pins the whole harness to the
    sequential schedule. *)

val default_size : unit -> int
(** The size {!create} would pick right now ([DITTO_DOMAINS] or
    [recommended_domain_count - 1]) — exposed for reports and tests. *)

(** {1 Instrumentation} *)

type stats = {
  tasks_queued : int;  (** tasks pushed onto any pool's shared queue *)
  tasks_stolen : int;  (** tasks the submitting domain drained back while helping *)
  tasks_by_workers : int;  (** tasks executed by worker domains *)
  busy_seconds : float;
      (** cumulative wall-clock time spent executing pool tasks, on any
          path — workers, helping submitters, and the sequential
          fallbacks all count (the bench derives parallel efficiency
          from deltas of this) *)
  idle_seconds : float;
      (** cumulative wall-clock time worker domains spent blocked waiting
          for work *)
}

val stats : unit -> stats
(** Process-wide task counters (across all pools, since process start).
    Tasks short-circuited by the sequential paths of {!map} (empty or
    singleton lists, pool size <= 1) are not queued and not counted —
    their execution time still lands in [busy_seconds]. *)

val set_task_hook : ((unit -> unit) -> unit -> unit) -> unit
(** Install a wrapper applied to every task at submission time — the
    observability layer uses this to span-wrap tasks with the submitter's
    context. The hook must be cheap when its backend is disabled; it is
    global and meant to be installed once, by [Ditto_obs]. *)
