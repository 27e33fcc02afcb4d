(** Hardware stride prefetcher.

    Detects load streams with regular strides per instruction address and
    asks the hierarchy to fill upcoming lines (Intel-style L1/L2 streamers,
    §4.4.4: "hardware prefetchers detect load instructions with regular
    strides ... to load data into caches before they are needed"). *)

type t

val create : ?degree:int -> unit -> t
(** A 64-entry stride table. [degree] is how many lines ahead are
    prefetched on a confirmed stride. *)

val observe : t -> pc:int -> addr:int -> (int -> unit) -> unit
(** [observe t ~pc ~addr fill] records a demand access by the load at [pc];
    when a stable stride is confirmed, calls [fill] with each predicted
    future address. *)

val flush : t -> unit
