(** Request-centric tracing on the simulated (DES) clock.

    Where {!Timeseries} aggregates per-window counts, [Reqtrace] follows
    individual requests through the tier DAG: a deterministically sampled
    request gets a span tree — a client root span, one RPC span per
    downstream call attempt (client-side view: send to reply/timeout) and
    one server span per tier that handled it — whose typed segments
    decompose the time: accept-queue wait, service/compute, retry
    backoff. {!Ditto_report.Critpath} folds these trees into per-tier ×
    segment latency-contribution tables.

    A per-run setting, off by default, like {!Timeseries}: a collector
    exists only when the run's [Runner.config.reqtrace] is set, and
    without one every service hook is a single option match, so
    pool-size bit-identity of the simulation is untouched. Sampling
    never draws from the run's RNG streams — the decision hashes the run
    seed with a per-run request sequence number — and recording never
    performs engine effects, so a traced run's simulated results are
    byte-identical to an untraced run's. A collector is only ever
    touched from the single domain executing its run's engine; no
    locking.

    Trace context crosses tiers as an opaque span id riding
    [Ditto_net.Socket.msg.meta] ([0] = unsampled), so [lib/net] stays
    free of any observability dependency. *)

val client_tier : string
(** Tier name of client root spans: ["client"] (same as
    {!Timeseries.client_tier}). *)

(** {1 Span model} *)

type segment_kind =
  | Queue  (** accept-queue wait: message delivery to handling start *)
  | Service  (** service/compute: CPU, disk and think segments of the replayed trace *)
  | Backoff  (** retry backoff sleeps between downstream attempts *)

val segment_name : segment_kind -> string
(** ["queue"] / ["service"] / ["backoff"]. *)

type outcome =
  | Ok
  | Err  (** error reply (downstream failure surfaced upstream) *)
  | Shed  (** rejected by load shedding before any work *)
  | Timeout  (** per-call or client deadline expired; no reply consumed *)

val outcome_name : outcome -> string

type span_kind =
  | Client  (** load-generator root: one per sampled request *)
  | Rpc  (** one call attempt, client side: send until reply/timeout *)
  | Server  (** one tier handling the request *)

type segment = { seg_kind : segment_kind; seg_start : float; seg_dur : float }

type span = {
  sp_id : int;  (** unique within the collector, > 0 *)
  sp_parent : int;  (** [0] for roots *)
  sp_kind : span_kind;
  sp_tier : string;  (** server: handling tier; rpc: target tier; client: {!client_tier} *)
  mutable sp_op : int;
      (** request type: index of the measured trace replayed at the entry
          tier; [-1] until known (propagated to the root on finish) *)
  sp_arrive : float;  (** servers: message delivery time; others: creation time *)
  sp_start : float;  (** servers: handling start; rpc: send time *)
  mutable sp_end : float;  (** [nan] while open; closed by finish/finalize *)
  mutable sp_outcome : outcome;
  mutable sp_req_bytes : int;
  mutable sp_resp_bytes : int;
  mutable sp_segs : segment list;  (** chronological *)
  mutable sp_children : span list;  (** chronological (creation order) *)
}

type t

val create : ?sample_every:int -> ?max_traces:int -> ?max_per_type:int -> seed:int -> unit -> t
(** A per-run collector. One request in [sample_every] (default 7) is
    sampled, chosen by hashing [seed] with the request's arrival sequence
    number — deterministic, independent of every simulation RNG stream.
    At most [max_traces] traces are kept per run (default 512) and at
    most [max_per_type] per request type (default 64; the quota is
    enforced when the type is known, at the root's finish). *)

(** {1 Recording hooks} ([span] = 0 means "not sampled": every recorder
    is a no-op then, so call sites stay branch-free) *)

val client_start : t -> at:float -> int
(** Called for every client request; counts it and returns the root span
    id when this request is sampled, [0] otherwise. *)

val client_finish : t -> span:int -> at:float -> outcome -> unit

val rpc_begin : t -> parent:int -> target:string -> at:float -> int
(** One downstream (or client → entry) call attempt; the returned id is
    the trace context to ride the request message ([Socket.send ~meta]).
    An RPC span records no bytes: the server span it parents does. *)

val rpc_end : t -> span:int -> at:float -> outcome -> unit

val server_begin : t -> parent:int -> tier:string -> bytes:int -> arrived:float -> at:float -> int
(** Tier starts handling a sampled request ([parent] = the message's meta,
    an RPC span id). Records the accept-queue wait [at - arrived]. *)

val server_op : t -> span:int -> op:int -> unit
(** The measured-trace index the tier chose to replay (the request type,
    when recorded at the entry tier). *)

val server_end : t -> span:int -> ?bytes:int -> at:float -> outcome -> unit

val segment : t -> span:int -> segment_kind -> start:float -> dur:float -> unit
(** A typed segment on an open span (service/compute work, backoff). *)

val finalize : t -> at:float -> unit
(** End of run: closes every still-open span at [at] (a request in
    flight at teardown keeps its partial tree, outcome {!Timeout}) and
    freezes segment/child lists into chronological order. Idempotent. *)

(** {1 Reading} (valid after {!finalize}) *)

val requests_seen : t -> int
val sampled : t -> int
(** Kept traces (after per-type quota drops). *)

val traces : t -> span list
(** Root spans of the kept traces, in request order. *)

val jaeger : t -> Ditto_util.Jsonx.t
(** Jaeger JSON ({["data": [...]]}) with one trace per sampled request:
    client root + server spans (RPC spans are folded into the parent
    chain), hex ids, CHILD_OF references, [operationName] = tier,
    [req_bytes]/[resp_bytes] integer tags, start/duration in simulated
    microseconds — exactly the subset [Ditto_trace.Jaeger.of_string]
    parses, so the export round-trips through [inspect-trace]. *)

val write_jaeger : string -> t -> unit
