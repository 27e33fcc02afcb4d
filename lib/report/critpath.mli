(** Critical-path latency attribution from sampled request traces.

    Takes the span trees a {!Ditto_obs.Reqtrace} collector recorded and,
    per trace, extracts the critical path: the chain of activities the
    end-to-end latency actually waited on. Folding the sampled paths
    gives per-tier × segment latency-contribution tables, and comparing
    an actual run's table with the clone's gives a divergence scorecard
    that ranks tier × segment pairs by contribution error — turning
    "clone p99 is 8% high" into "the clone's [nginx → memcached] RPC wait
    under-contributes by 6 pp".

    The walk is backward from each span's end: repeatedly pick the
    latest-ending activity (own typed segment, or a child RPC interval)
    not after the cursor, attribute uncovered gaps to the span's tier as
    ["other"], and descend into a child RPC — its wait minus the callee's
    server-span duration is network ("rpc:<target>" on the caller), the
    rest recurses into the callee. With async fan-out the latest-ending
    child is exactly what the join waited on. Ties (equal activity ends)
    break toward the later-starting, then later-recorded activity, so
    extraction is deterministic for a deterministic trace. *)

type cell = {
  c_tier : string;
  c_segment : string;
      (** ["queue"], ["service"], ["backoff"], ["rpc:<target>"] (network +
          unattributed remote wait, on the caller), or ["other"]
          (uncovered gaps: scheduling, epoll latency) *)
  c_mean : float;  (** seconds contributed per sampled request (zeros included) *)
  c_p95 : float;
  c_p99 : float;
  c_share_pct : float;  (** [c_mean] as % of the mean end-to-end latency *)
}

type table = {
  t_samples : int;
  t_mean_e2e : float;  (** mean end-to-end latency of the sampled traces, seconds *)
  t_cells : cell list;  (** sorted by share, descending *)
}

val contributions : Ditto_obs.Reqtrace.span -> (string * string * float) list
(** One trace's critical path, folded to [(tier, segment, seconds)] in
    descending-seconds order. Exposed for tests. *)

val of_traces : Ditto_obs.Reqtrace.span list -> table
(** Fold sampled traces (client root spans) into a contribution table.
    An empty list gives an empty table. *)

type div_row = {
  d_tier : string;
  d_segment : string;
  d_actual_mean : float;
  d_clone_mean : float;  (** seconds *)
  d_actual_share_pct : float;
  d_clone_share_pct : float;
  d_err_pp : float;  (** clone share − actual share, percentage points (signed) *)
}

type divergence = {
  v_app : string;
  v_plan : string option;
  v_actual : table;
  v_clone : table;
  v_rows : div_row list;  (** union of both tables' cells, ranked by |err_pp| desc *)
}

val divergence : app:string -> ?plan:string -> actual:table -> clone:table -> unit -> divergence

val of_comparison :
  app:string -> ?plan:string -> Ditto_core.Pipeline.comparison -> divergence
(** Build the scorecard straight from a validation run whose two sides
    carried {!Ditto_obs.Reqtrace} collectors. Raises [Invalid_argument]
    when either side has none (the runner config did not set [reqtrace]). *)

val worst : divergence -> div_row option
(** Highest-|err_pp| row — the tier × segment the tuner should look at. *)

val print : divergence -> unit
(** Terminal table (both sides' mean contribution and share per tier ×
    segment, ranked by divergence) plus a greppable
    [CRITPATH worst=<tier>/<segment> err_pp=...] summary line. *)

val flat : divergence -> (string * float) list
(** Flat gate keys for the [critpath] section of [bench --json] (schema
    v8), gated through {!Baseline}:
    [<app>/<plan>/<tier>/<segment>/share_err_pp] (absolute pp) per row
    plus [<app>/<plan>/{worst_share_err_pp,mean_share_err_pp}]. [plan]
    falls back to ["steady"]. *)
