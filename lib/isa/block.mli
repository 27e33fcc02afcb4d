(** Executable instruction blocks — the IR both original and synthetic
    application bodies compile to.

    A block is a static array of instruction templates executed for a given
    number of iterations, exactly like the generated
    [__asm__ __volatile__] loops in Fig. 3 of the paper. Templates carry
    register operands, a memory-address pattern, and (for conditional
    branches) the paper's bitmask taken/transition behaviour; the core model
    resolves them to dynamic instructions at simulation time. *)

(** A named byte range of the simulated address space. *)
type region = {
  region_base : int;  (** base virtual address, 64-byte aligned *)
  region_bytes : int;
  shared : bool;  (** accessed by multiple threads (coherence traffic) *)
}

val make_region : base:int -> bytes:int -> shared:bool -> region

(** How a memory-operand address evolves across dynamic executions. *)
type mem_pattern =
  | No_mem
  | Fixed_offset of { region : region; offset : int }
      (** hard-coded [\[r10 + OFFSET\]] accesses of synthetic code *)
  | Seq_stride of { region : region; start : int; stride : int; span : int }
      (** regular pattern (prefetch-friendly): wraps within [span] bytes *)
  | Rand_uniform of { region : region; start : int; span : int }
      (** irregular pattern: uniform over [span] bytes *)
  | Chase of { region : region; start : int; span : int }
      (** pointer chasing: each address is a hash of the previous one,
          serialising memory-level parallelism *)

(** Conditional-branch behaviour: taken rate [2^-m], transition rate
    [2^-n], realised as a deterministic counter pattern equivalent to the
    paper's [test r8d, BIT_MASK; jz] idiom. [invert] flips the majority
    direction (mostly-taken vs mostly-not-taken). *)
type branch_spec = { m : int; n : int; invert : bool }

val branch_outcome : m:int -> n:int -> int -> bool
(** [branch_outcome ~m ~n k] is the outcome of the [k]-th dynamic execution:
    a deterministic sequence whose long-run taken fraction is [2^-m] and
    whose direction-transition frequency is [min 2^-n (2^(1-m))]. *)

(** One instruction template. [dst = -1] means no register destination.
    The mutable fields are per-template dynamic cursors that persist across
    requests, mirroring the counter registers and pointer state of real
    generated assembly: [branch_seq] drives the bitmask outcome sequence,
    [seq_pos] advances sequential streams, [chase_cur] holds the current
    pointer of a chase chain (-1 = chain not entered). *)
type temp = {
  iform : Iform.t;
  dst : int;
  srcs : int array;
  mem : mem_pattern;
  branch : branch_spec option;
  rep_count : int;  (** repeat count for REP-prefixed iforms; 0 otherwise *)
  mutable branch_seq : int;
  mutable seq_pos : int;
  mutable seq_phase : int;
      (** hard-coded stream phase ([seq_pos]'s initial/reset value) *)
  mutable chase_cur : int;
}

val set_phase : temp -> int -> unit
(** Fix the template's sequential-stream phase (its distinct hard-coded
    offset within a shared window); survives {!reset_state}. *)

val temp :
  ?dst:int ->
  ?srcs:int array ->
  ?mem:mem_pattern ->
  ?branch:branch_spec ->
  ?rep_count:int ->
  Iform.t ->
  temp
(** Raises [Invalid_argument] unless [dst] and every element of [srcs] is
    {!no_reg} or a register id in [\[0, num_regs)]. *)

(** A block is built only by {!make}, which decodes once what the core
    model would otherwise re-derive per dynamic instruction. *)
type t = private {
  uid : int;  (** process-unique block id *)
  label : string;
  code_base : int;  (** virtual address of the first instruction *)
  temps : temp array;
  addrs : int array;  (** per-template instruction addresses *)
  code_bytes : int;
  static_insts : int;
  decode : int array;  (** per-template set of the [d_*] flags below *)
  occupancy : float array;
      (** cycles each template holds its execution port: [0.6 × latency]
          for the unpipelined dividers, 1 otherwise *)
  pass_uops : int;
      (** uops one pass over the templates retires: each iform's uops, but
          2 per {!rep_chunks} for a REP string *)
}

val make : label:string -> code_base:int -> temp list -> t

(** {2 Static decode flags} *)

val d_new_line : int
(** The template starts a new 64-byte fetch line: its line differs from
    the previous template's. Always set on template 0, whose predecessor
    (the last template of the previous pass, or another block) only the
    core knows. *)

val d_store : int
(** The memory operand is written and not read (its latency is hidden by
    the store buffer). *)

val d_lock : int
(** A locked read-modify-write. *)

val d_rep : int
(** A REP string instruction. *)

val d_cond : int
(** A conditional branch. *)

val d_control : int
(** Any control transfer ({!Iclass.is_control}). *)

val rep_chunks : temp -> int
(** The 64-byte lines a REP string template moves per execution:
    [rep_count / 64], at least 1. *)

val reset_state : t -> unit
(** Reset every template's dynamic cursors (branch sequence, stream
    position, chase pointer) to their initial values. The measurement phase
    resets each block on first touch so that runs are reproducible even
    when blocks (e.g. memoised kernel paths) are shared across runs. *)

(** {1 Registers} *)

val gp : int -> int
(** General-purpose register ids 0..15. *)

val xmm : int -> int
(** SIMD register ids 16..31. *)

val num_regs : int
val no_reg : int
(** Sentinel (-1) for "no register". *)

(** {1 Address helpers} *)

val chase_next : region -> start:int -> span:int -> int -> int
(** Deterministic next pointer in a chase chain: maps the current address to
    another 64-byte-aligned address in the window. *)

val resolve_mem : rng:Ditto_util.Rng.t -> temp -> int * bool
(** Resolve a template's memory operand for its next dynamic execution,
    advancing the template's stream cursors; returns [(address, shared)] or
    [(-1, false)] when there is none. This is the single source of truth
    for address streams — the core model and the profilers both use it. *)

val resolve_mem_packed : rng:Ditto_util.Rng.t -> temp -> int
(** Allocation-free [resolve_mem]: the result is [(address lsl 1) lor
    shared] ([-2] when there is no operand). For the per-instruction hot
    path; identical stream advancement. *)

(** One dynamic instruction event, as seen by profilers. *)
type event = {
  ev_index : int;  (** template index within the block *)
  ev_pc : int;
  ev_temp : temp;
  ev_addr : int;  (** resolved address or -1 *)
  ev_shared : bool;
  ev_taken : bool option;  (** conditional-branch outcome *)
  ev_iteration : int;
}

val iter_stream :
  rng:Ditto_util.Rng.t -> iterations:int -> t -> (event -> unit) -> unit
(** Walk the dynamic instruction stream of a block — same addresses and
    branch outcomes the core model would execute — invoking the callback
    per instruction. Used by the Valgrind/SDE-style profilers. *)
