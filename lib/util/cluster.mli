(** Agglomerative (hierarchical) clustering.

    Ditto clusters threads by call-graph similarity (§4.3.2) and x86 iforms
    by hardware-resource similarity (§4.4.2) using agglomerative clustering
    because the number of clusters is unknown in advance. *)

val agglomerative :
  distance:('a -> 'a -> float) -> threshold:float -> 'a array -> 'a list list
(** [agglomerative ~distance ~threshold items] merges the closest pair of
    clusters until the minimum inter-cluster distance exceeds [threshold].
    The distance between two clusters is the mean distance between their
    items (average linkage).
    Returns the resulting clusters as lists of original items. Distances are
    computed once per item pair ([distance] must be symmetric with zero
    self-distance). O(n^3) worst case — fine for the tens-to-hundreds of
    items Ditto clusters. *)

val agglomerative_k : distance:('a -> 'a -> float) -> k:int -> 'a array -> 'a list list
(** Same, but stop when exactly [k] clusters remain (or fewer items). *)
