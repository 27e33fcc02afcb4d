(** Data-dependency profiler (§4.4.6) — the SDE DCFG analogue.

    Measures read-after-write, write-after-read and write-after-write
    register dependency distances over the dynamic stream, quantized into
    the paper's 11 exponential bins (1..1024; larger distances do not
    affect ILP given a finite reorder buffer). Also measures the
    pointer-chase fraction — loads whose address register is their own
    output, the serialisation that bounds memory-level parallelism. *)

val bins : int
(** 11. *)

val bin_of_distance : int -> int
(** log2 bin clamped to [0, bins-1]. *)

type t = {
  raw : float array;  (** RAW distance histogram, normalised; length [bins] *)
  raw_addr : float array;
      (** RAW distances of memory-operand address registers only: how soon
          before a load/store its address is produced — this is what bounds
          memory-level parallelism, so it is profiled (and generated)
          separately from plain data dependencies *)
  war : float array;
  waw : float array;
  chase_fraction : float;  (** pointer-chasing loads / all loads *)
}

val observer : ?live:bool ref -> unit -> Stream.observer * (unit -> t)

val distance_sampler : float array -> (Ditto_util.Rng.t -> int)
(** [distance_sampler hist] builds, once, a sampler of distances [2^bin]
    weighted by the histogram; each draw takes one uniform. A histogram
    with no positive weight yields 8 without drawing. *)
