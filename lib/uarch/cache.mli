(** Set-associative cache with LRU (or tree-PLRU) replacement.

    Pure tag store: hit/miss bookkeeping only, no latency — the hierarchy in
    {!Memory} composes levels and assigns latencies and per-core counters.
    Lines are 64 bytes, matching the paper's working-set construction. *)

type replacement = Lru | Plru

type t

val line_bytes : int

val create : ?replacement:replacement -> size_bytes:int -> assoc:int -> unit -> t
(** [create ~size_bytes ~assoc ()]: number of sets is
    [size_bytes / (64 * assoc)], rounded up to a power of two (at least 1). *)

val size_bytes : t -> int
val assoc : t -> int
val sets : t -> int

val access : t -> int -> bool
(** [access t addr] looks the line up, updates replacement state and fills
    on miss; returns whether it hit. *)

val probe : t -> int -> bool
(** Lookup without updating replacement state or filling. *)

val invalidate : t -> int -> bool
(** Remove the line if present; returns whether it was present. *)

val flush : t -> unit
(** Empty the cache. *)
