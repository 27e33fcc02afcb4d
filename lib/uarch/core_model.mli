(** Interval-style out-of-order core model.

    Executes {!Ditto_isa.Block} instruction streams against the memory
    hierarchy and a branch predictor, resolving per-instruction issue times
    under issue-width, dependency, execution-port, ROB and MSHR constraints
    — the level of abstraction used by interval simulators such as Sniper,
    which is sufficient to reproduce IPC, miss-rate and top-down trends.

    The pipeline clock is virtual and monotonic per core; callers measure
    per-segment cycles via {!Counters} snapshots. *)

type t

val create : Memory.t -> core:int -> t
(** A core bound to slot [core] of the hierarchy (which also holds its
    counters). *)

val counters : t -> Counters.t
val platform : t -> Platform.t

val reset : t -> unit
(** Restore the pristine post-{!create} state (issue cursors, ROB, ports,
    MSHRs, branch predictor, width factor) so the core can be recycled
    across runs with bit-identical results. Cores that executed nothing
    since the last reset return immediately. *)

val set_width_factor : t -> float -> unit
(** Scale effective issue width (e.g. 0.5 when an SMT sibling is active,
    Fig. 10's hyperthreading interference). *)

val exec_block : t -> rng:Ditto_util.Rng.t -> Ditto_isa.Block.t -> iterations:int -> unit
(** Run [iterations] passes over the block's templates, updating counters
    (instructions, cycles, misses, top-down slots). The call reads the
    block's static decode ({!Ditto_isa.Block.make}) instead of classifying
    each dynamic instruction, keeps the pipeline clock, ROB cursor and
    top-down accumulators in locals, and writes them back when it
    returns; [insts], [uops] and [retiring] grow once per call. Results
    are those of a per-instruction update, bit for bit. Allocates
    nothing once the hierarchy is warm. *)

val now : t -> float
(** Current virtual pipeline time in cycles. *)

val drain : t -> unit
(** Advance the issue cursor past all outstanding completions (end of a
    request's computation). *)
