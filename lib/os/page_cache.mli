(** OS page cache: LRU over 4KB pages.

    File reads that hit here cost only kernel copy work; misses go to the
    disk device. Configuring a small cache relative to the dataset is what
    makes MongoDB disk-bound in the paper's setup (40GB data, uniform
    access).

    Storage grows with the pages a run touches, not with the configured
    capacity, and a read allocates nothing once it has grown. *)

type t

val page_bytes : int

val create : capacity_bytes:int -> t

val read : t -> offset:int -> bytes:int -> int
(** Touch the pages of the byte range [offset, offset+bytes); returns how
    many bytes must be fetched from disk (missed pages; they are inserted,
    evicting LRU pages). Page ids are [offset / page_bytes]; raises
    [Invalid_argument] if [offset] is negative. *)

val lookups : t -> int
val misses : t -> int
val hit_rate : t -> float
val reset_stats : t -> unit
val flush : t -> unit
