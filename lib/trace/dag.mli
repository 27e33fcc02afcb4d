(** RPC dependency-graph extraction from spans (§4.2).

    The microservice topology is a DAG whose nodes are services and whose
    edges carry call statistics: the mean number of calls a request to the
    caller makes to the callee (Fig. 3's edge weights) and message sizes.
    The DAG feeds the skeleton generator's API-interface synthesis. *)

type edge = {
  caller : string;
  callee : string;
  calls_per_request : float;
  probability : float;  (** fraction of caller requests issuing >=1 call *)
  req_bytes : int;  (** mean request size *)
  resp_bytes : int;
}

type t = { entry : string; services : string list; edges : edge list }

val of_spans : Span.t list -> t
(** Raises [Invalid_argument] if the spans contain no root. When several
    roots are present (one trace per request, as the critpath gate
    exports), the topology is extracted with the first root's service as
    entry; use {!roots} to enumerate them all. *)

val roots : Span.t list -> (Span.t * int) list
(** Every root span paired with the number of spans reachable from it
    (itself included), in input order. *)

val downstreams : t -> string -> edge list
val topo_order : t -> string list
(** Entry first; raises [Invalid_argument] on a cyclic graph. *)

val pp : Format.formatter -> t -> unit
