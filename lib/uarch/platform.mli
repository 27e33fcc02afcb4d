(** Server platform specifications — Table 1 of the paper.

    Three heterogeneous x86 servers; all run the same ISA but differ in CPU
    generation, memory hierarchy, storage and network. The [scale] values
    below deliberately mirror Table 1 (L2 1MB on A vs 256KB on B/C, LLC
    30.25/25/8 MB, SSD on A vs HDD on B/C, 10GbE on A vs 1GbE). *)

type disk_kind = Ssd | Hdd

type t = {
  name : string;
  cpu_model : string;
  family : string;  (** Skylake / Haswell *)
  freq_ghz : float;  (** base frequency; Fig. 11 sweeps this *)
  cores : int;  (** usable physical cores (per deployment) *)
  sockets : int;
  smt : int;  (** hardware threads per core *)
  l1i_bytes : int;
  l1d_bytes : int;
  l2_bytes : int;
  llc_bytes : int;
  l1_assoc : int;
  l2_assoc : int;
  llc_assoc : int;
  lat_l1 : int;  (** load-to-use latencies, cycles *)
  lat_l2 : int;
  lat_llc : int;
  lat_mem : int;  (** DRAM, cycles at base frequency *)
  issue_width : int;
  rob_size : int;
  mispredict_penalty : int;  (** cycles *)
  btb_miss_penalty : int;
  predictor_entries : int;
  btb_entries : int;
  ram_gb : int;
  disk : disk_kind;
  net_gbps : float;
}

val a : t
(** Platform A: 2× Gold 6152 (Skylake, 22c), L2 1MB, LLC 30.25MB,
    192GB\@2666, 1TB SSD, 10GbE, 2.1GHz. *)

val b : t
(** Platform B: 2× E5-2660 v3 (Haswell, 10c), L2 256KB, LLC 25MB,
    128GB\@2400, 2TB HDD, 1GbE, 2.6GHz. *)

val c : t
(** Platform C: 1× E3-1240 v5 (Skylake, 4c), L2 256KB, LLC 8MB,
    32GB\@2133, 1TB HDD, 1GbE, 3.5GHz. *)

val all : t list

val by_name : string -> t
(** Lookup by [name] ("A" | "B" | "C"); raises [Not_found] otherwise. *)

val with_frequency : t -> float -> t
(** Frequency-scaled copy (memory latency in cycles rescales so absolute
    DRAM time is invariant), used by the Fig. 11 power-management sweep. *)

val with_cores : t -> int -> t

val table1_rows : string list list
(** Rows for re-printing Table 1. *)
