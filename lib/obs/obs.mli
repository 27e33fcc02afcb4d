(** Self-tracing and telemetry for the cloning pipeline itself.

    Ditto's premise is that spans plus counters characterise a service; this
    library applies the same lens to the pipeline. It records Jaeger-style
    spans of the clone/validate/tune workflow into per-domain lock-free ring
    buffers (reached through [Domain.DLS], so the hot path never contends
    across domains) and keeps a process-wide counter/gauge registry. Buffers
    are merged only at export, into either Chrome trace-event JSON (pool
    utilisation, keyed by domain id) or Jaeger JSON that
    {!Ditto_trace.Jaeger} re-ingests — so Ditto can clone Ditto.

    Everything is disabled by default: until {!enable} is called,
    {!Span.with_span} and every metric update are a single [Atomic.get]
    plus a branch, preserving the bit-identical-across-pool-sizes guarantee
    of the execution layer (tracing never touches RNG streams either way). *)

val enabled : unit -> bool

val enable : unit -> unit
(** Turn recording on. The first call also installs the
    {!Ditto_util.Pool} task hook (each pool task becomes a span parented to
    its submitter, even across domains) and registers the pool gauges. *)

val disable : unit -> unit

val set_capacity : int -> unit
(** Per-domain ring capacity (default 65536 spans) for buffers created or
    {!Export.clear}ed after the call. When a ring wraps, the oldest spans
    are overwritten and counted in {!Export.dropped}. *)

(** {1 Spans} *)

type attr = Str of string | Float of float | Int of int | Bool of bool

type context
(** Identity of an open span, used to parent spans across domains. *)

val current : unit -> context option
(** The innermost open span on the calling domain, if tracing is enabled. *)

type completed = {
  trace_id : int;
  span_id : int;
  parent_id : int option;
  name : string;
  domain : int;  (** ring-buffer (registration) index of the recording domain *)
  start_ns : int64;  (** monotonic clock *)
  dur_ns : int64;
  attrs : (string * attr) list;
}

module Span : sig
  val with_span : ?parent:context -> ?attrs:(string * attr) list -> name:string -> (unit -> 'a) -> 'a
  (** Run the thunk inside a span. Parentage: an explicit [?parent] (from
      {!current}, possibly captured on another domain) wins; otherwise the
      innermost open span on this domain; otherwise the span roots a fresh
      trace. The span is recorded when the thunk returns or raises. When
      tracing is disabled this is exactly [f ()]. *)

  val add_attr : string -> attr -> unit
  (** Attach an attribute to the innermost open span (no-op without one). *)
end

(** {1 Metrics} *)

module Metrics : sig
  type counter

  val counter : string -> counter
  (** Get or create the named counter. Call once at module init, not on hot
      paths (creation takes a lock; {!incr} does not). *)

  val incr : counter -> unit
  val add : counter -> int -> unit
  (** Updates are dropped while tracing is disabled. *)

  val value : counter -> int
  val name : counter -> string

  val register_gauge : string -> (unit -> float) -> unit
  (** A gauge is sampled at {!snapshot} time; re-registering a name
      replaces the previous gauge. *)

  val snapshot : unit -> (string * float) list
  (** Counters and gauges, merged and sorted by name. *)

  val reset : unit -> unit
  (** Zero all counters (gauges are callbacks and are left alone). *)
end

(** {1 Export}

    Exports read the ring buffers without synchronising with writers; call
    them when pipeline work is quiescent (end of run, after a batch). *)

module Export : sig
  val spans : unit -> completed list
  (** All retained spans across domains, sorted by start time. *)

  val dropped : unit -> int
  (** Spans lost to ring wrap-around since the last {!clear}. *)

  val clear : unit -> unit
  (** Drop retained spans (open spans complete into the emptied rings). *)

  val to_chrome : ?events:Ditto_util.Jsonx.t list -> unit -> Ditto_util.Jsonx.t
  (** Chrome trace-event JSON ([chrome://tracing] / Perfetto): one complete
      ("ph":"X") event per span with [tid] = domain id, plus thread-name
      metadata and a [dittoMetrics] snapshot, with [events] appended to
      [traceEvents]. Timestamps are microseconds relative to the earliest
      span. *)

  val to_jaeger : unit -> Ditto_util.Jsonx.t
  (** Jaeger JSON export ([{"data":[{"traceID";"spans";"processes"}]}]),
      one entry per trace, CHILD_OF references for parentage — the format
      {!Ditto_trace.Jaeger} parses back into {!Ditto_trace.Span.t}s. *)

  val write_chrome : string -> unit
  val write_jaeger : string -> unit

  val write_traces :
    ?events:Ditto_util.Jsonx.t list -> ?chrome:string -> ?jaeger:string -> unit -> string list
  (** The [--trace FILE] / [--trace-jaeger FILE] pair: writes the Chrome
      file to [chrome] (with [events] appended, e.g. the
      {!Timeseries.chrome_events} counter tracks) and the Jaeger file to
      [jaeger], which defaults to [chrome ^ ".jaeger.json"]. Returns one
      ["wrote FILE ..."] line per file written. *)
end
