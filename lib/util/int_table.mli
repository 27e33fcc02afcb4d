(** Open-addressed map from non-negative ints to non-negative ints.

    Built for per-access hot paths (the coherence directory, the page-cache
    index): two flat int arrays, linear probing, backward-shift deletion,
    power-of-two capacity that doubles at half load. Lookups, inserts,
    updates and removals allocate nothing once the table has grown to fit;
    storage grows with the number of keys held, never up front. *)

type t

val create : int -> t
(** [create n] makes an empty table with room for about [n / 2] keys
    before it first grows. *)

val find : t -> int -> int
(** [find t key] is the value bound to [key], or [-1] if there is none. *)

val replace : t -> int -> int -> unit
(** [replace t key v] binds [key] to [v], replacing any previous binding.
    Raises [Invalid_argument] if [key] or [v] is negative. *)

val remove : t -> int -> unit
(** [remove t key] drops [key]'s binding, if any. *)

val length : t -> int
(** Number of bound keys. *)

val clear : t -> unit
(** Drop every binding; keeps the grown storage. *)
