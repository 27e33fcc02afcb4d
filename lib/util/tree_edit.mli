(** Ordered labelled trees and the Zhang–Shasha tree edit distance.

    Ditto measures similarity between per-thread call graphs with tree-edit
    distance (§4.3.2, citing Bille's survey) before clustering threads. *)

type 'a tree = Node of 'a * 'a tree list

val node : 'a -> 'a tree list -> 'a tree
val leaf : 'a -> 'a tree
val size : 'a tree -> int
val depth : 'a tree -> int

val distance : 'a tree -> 'a tree -> float
(** Zhang–Shasha edit distance between two ordered trees. An insert or a
    delete costs 1, a substitution 0 between equal labels and 1 otherwise. *)

val normalized_distance : 'a tree -> 'a tree -> float
(** Distance divided by [max (size a) (size b)] — in [\[0, 1\]] for unit
    costs, used as the clustering metric. *)
