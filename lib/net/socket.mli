(** Bidirectional message sockets with epoll-style readiness.

    Messages carry only sizes (no payload — the clone never ships real
    data). A send serialises through the local NIC, crosses the link
    latency, then lands in the peer's receive queue and wakes any epoll
    waiter — giving the I/O-multiplexing server model of §4.3.1 its real
    blocking structure.

    For the chaos layer ({!Ditto_fault}), deliveries additionally carry an
    error flag (a load-shed or failed RPC answers with [err = true]) and can
    be vetoed or delayed per message by an installed {!set_disruptor}
    callback. *)

type endpoint

type msg = { bytes : int; err : bool; arrived : float; meta : int }
(** [arrived] is the delivery time — the instant the message entered the
    receive queue, for measuring server-side queueing. [meta] is an
    opaque application token carried verbatim with the message ([0] when
    the sender set none); {!Ditto_obs.Reqtrace} rides trace context on it
    without this layer depending on the observability stack. *)

type verdict = Deliver | Delay of float | Drop
(** Fate of one delivery, decided by a disruptor: deliver normally, deliver
    after an extra one-way delay (seconds), or silently drop. The sender's
    NIC still serialises dropped messages (the bytes left the host). *)

val pair :
  Ditto_sim.Engine.t ->
  a_nic:Nic.t ->
  b_nic:Nic.t ->
  latency:float ->
  endpoint * endpoint
(** A connected socket; [latency] is the one-way propagation delay. *)

val set_disruptor : endpoint -> (bytes:int -> verdict) option -> unit
(** Install (or clear) a per-send delivery verdict for this direction of the
    link. [None] (the default) delivers everything. *)

val send : ?err:bool -> ?meta:int -> endpoint -> bytes:int -> unit
(** Blocking send from within a process (NIC queueing + serialisation).
    [err] marks the message as an application-level error response;
    [meta] (default [0]) is an opaque token delivered with the message. *)

val recv_msg : endpoint -> msg
(** Blocking receive of the next message. *)

val recv_msg_timeout : endpoint -> timeout:float -> msg option
(** Blocking receive with a deadline; [None] once [timeout] seconds pass
    without a delivery. *)

val try_recv_msg : endpoint -> msg option
(** The next message if one is queued; never blocks. *)

val pending : endpoint -> int

(** {1 I/O multiplexing} *)

module Epoll : sig
  type t

  val create : unit -> t

  val add : t -> endpoint -> unit
  (** Register an endpoint for readiness. An endpoint belongs to at most one
      epoll: adding it a second time, to this epoll or another, raises
      [Invalid_argument]. Processes waiting on the epoll are woken by every
      delivery to its endpoints; do not also block in {!recv_msg} on an endpoint
      an epoll owns. *)

  val wait : ?timeout:float -> t -> endpoint list
  (** Block until at least one registered endpoint is readable; returns the
      ready endpoints, most recently added first ([] only on timeout). A
      non-positive [timeout] polls: it returns the currently ready
      endpoints — possibly [] — without blocking or yielding. *)

  val endpoints : t -> endpoint list
  (** The registered endpoints, most recently added first: the order a
      non-blocking server's workers poll them in. *)

  val pending_total : t -> int
  (** Total queued messages across all registered endpoints (the tier's
      accept-queue depth, used for load shedding). O(1): the epoll keeps
      the count current on every delivery and every take. *)
end
