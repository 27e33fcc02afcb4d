(** System calls and their kernel-side work.

    Cloud services spend a large fraction of their cycles in the kernel
    (§3.3.2); Ditto clones kernel behaviour "by imitating the system calls
    themselves" (§4.4). Here each syscall kind maps to a synthetic kernel
    instruction stream (path length, instruction footprint, and a data-copy
    component proportional to the byte count) that the core model executes
    — so kernel time, kernel i-cache pollution and user/kernel interference
    emerge from simulation rather than being a fixed cost. *)

type kind =
  | Pread of { bytes : int; random : bool }
  | Pwrite of { bytes : int }
  | Sock_read of { bytes : int }
  | Sock_write of { bytes : int }
  | Epoll_wait
  | Accept
  | Futex_wait
  | Futex_wake
  | Mmap of { bytes : int }
  | Clone
  | Nanosleep of { seconds : float }
  | Gettime

val name : kind -> string
(** Constructor name without arguments (profiling key). *)

val payload_bytes : kind -> int
(** Byte count argument, 0 for argument-less calls. *)

val path_insts : kind -> int
(** Nominal kernel path length in instructions (before scaling and
    excluding the copy component). *)

val is_blocking : kind -> bool
(** Whether the call can block the thread off-CPU (epoll/futex-wait/
    nanosleep/accept); used by the skeleton profiler. *)

module Kernel : sig
  val streams : kind -> (Ditto_isa.Block.t * int) list
  (** The kernel instruction stream for one invocation, as (block,
      iterations) pairs ready for {!Ditto_uarch.Core_model.exec_block}.
      Path lengths and footprints are a quarter of their nominal size, for
      fast simulation. Results are memoised per domain, per syscall and
      log2 bucket of its payload bytes. *)

  val housekeeping : unit -> Ditto_isa.Block.t * int
  (** Timer-tick/RCU-style background kernel work that pollutes the i-cache
      and branch predictor between sparse requests — the reason services
      show poor frontend behaviour at low load (Fig. 5). *)
end
