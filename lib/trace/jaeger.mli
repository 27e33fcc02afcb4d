(** Jaeger JSON ingestion.

    Parses the Jaeger API shape [{"data": [{"traceID"; "spans"; ...}]}] —
    the format {!Ditto_obs.Obs.Export.to_jaeger} emits and real Jaeger
    collectors serve — back into {!Span.t}s, so externally captured traces
    (including Ditto's own pipeline traces) feed {!Dag.of_spans}. The span's
    [operationName] becomes the service name; [req_bytes]/[resp_bytes] are
    read from integer tags of those names and default to 0. *)

exception Ingest_error of { span_id : string; reason : string }
(** A structurally valid Jaeger document whose span content is broken:
    a malformed [CHILD_OF] reference, a span that is its own parent or
    sits on a parent cycle, or a negative [duration]. [span_id] is the
    offending span's id as written in the document. Raised instead of
    looping or overflowing in downstream DAG recovery. *)

val of_json : Ditto_util.Jsonx.t -> Span.t list
val of_string : string -> Span.t list
(** Raise {!Ditto_util.Jsonx.Parse_error} on malformed input (bad JSON,
    missing fields, non-hex ids, span or trace ids past 63 bits) and
    {!Ingest_error} on well-formed JSON
    carrying broken span content. The returned spans are guaranteed
    cycle-free, so {!Dag.of_spans} terminates on them. *)

val to_json : Span.t list -> Ditto_util.Jsonx.t
val to_string : ?pretty:bool -> Span.t list -> string
(** Serialise spans back to the same Jaeger API subset [of_string] reads:
    hex ids, [CHILD_OF] references, [operationName] = service, and
    [req_bytes]/[resp_bytes] integer tags. [of_string (to_string spans)]
    recovers the input spans (traces grouped, in-trace order preserved),
    which the topology synthesis round-trip relies on. *)
