(** Working-set profiler (§4.4.4, §4.4.5) — the Valgrind analogue.

    Simulates caches of every power-of-two size from one line (64B) up to
    the application's footprint over the data and instruction access
    streams, recording hits per size. Eq. 1 turns data-cache hit counts
    into the number of accesses to generate per working-set window; Eq. 2
    does the same for instruction executions (16 instructions per 64B line
    at the assumed 4B mean instruction size). Per the paper, sweeps use
    8-way caches below 1MB and 16-way at or above 1MB.

    Additionally profiles the regular-to-irregular access ratio (stride
    detection per instruction address — hardware-prefetcher sensitivity),
    the shared-data access ratio (coherence), and the write ratio. *)

type t = {
  d_hits : (int * int) list;  (** log2(bytes) -> H_d hits *)
  d_accesses_total : int;
  d_working_sets : (int * float) list;
      (** Eq. 1: log2(bytes) -> A_d accesses per request *)
  i_hits : (int * int) list;
  i_accesses_total : int;
  i_working_sets : (int * float) list;
      (** Eq. 2: log2(bytes) -> E_i instruction executions per request *)
  regular_ratio : float;
  shared_ratio : float;
  write_ratio : float;
}

val min_log2 : int
(** 6: one 64-byte line. *)

(** The sweep's set-associative, exact-LRU tag store. A set's state is
    allocated on its first access, so a sweep over a large heap costs what
    the stream touches rather than the caches' capacity. *)
module Sweep : sig
  type t

  val create : sets:int -> assoc:int -> t
  (** Raises [Invalid_argument] unless [sets] is a power of two and
      [assoc] positive. *)

  val access : t -> int -> bool
  (** [access t addr] looks up [addr]'s 64-byte line, makes it the most
      recently used of its set (filling on a miss, evicting the least
      recently used line of a full set) and returns whether it hit. *)
end

val observer : ?live:bool ref -> max_log2:int -> unit -> Stream.observer * (unit -> t)
(** [max_log2] bounds the largest simulated cache (e.g. log2 of the tier's
    heap). While [!live] is false (warmup) the sweep caches and stride
    tables update but nothing is counted — otherwise compulsory first
    touches of cache-resident structures masquerade as streaming traffic. *)

val eq1 : ?total_accesses:int -> requests:int -> (int * int) list -> (int * float) list
(** Pure Eq. 1 from hit counts (exposed for tests). [total_accesses]
    additionally assigns never-hitting (streaming) accesses to the largest
    working set. *)

val eq2 : requests:int -> (int * int) list -> (int * float) list
(** Pure Eq. 2 from i-hit counts (exposed for tests). *)
