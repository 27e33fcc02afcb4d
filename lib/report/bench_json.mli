(** Schema and assembly of the [bench --json] document.

    Schema version 3 added the embedded clone-accuracy scorecards (keyed
    by app under ["scorecards"]); version 4 adds the flat ["chaos"] section
    (fidelity-under-failure metrics keyed ["<app>/<plan>/<metric>"]);
    version 5 turns each ["experiments"] entry into an object carrying
    scheduling telemetry ([domains], [parallel_efficiency]) alongside its
    wall seconds; version 6 adds the ["engine"] section (the process-wide
    event-heap high-water mark) and the ["tier_counts"] object (per cloned
    app), so wide synthetic-graph runs are self-describing; version 7 adds
    the flat ["timeline"] section (transient-fidelity metrics from the
    windowed telemetry layer, keyed ["<app>/<plan>/<metric>"]); version 8
    adds the flat ["critpath"] section (critical-path divergence metrics
    from the request-tracing layer, keyed
    ["<app>/<plan>/<tier>/<segment>/share_err_pp"] plus per-app
    [worst_share_err_pp]/[mean_share_err_pp] summaries); version 9 adds
    the flat ["surge"] section (overload-fidelity metrics from
    profile-driven runs, keyed ["<app>/<profile>/<metric>"],
    {!Surge.flat}).
    The four flat gate sections are exactly {!Gate.all}, in that order,
    keyed by {!Gate.name}; every section is present, empty when its gate
    did not run.
    {!validate} is the shape check the test suite and downstream tooling
    run against emitted files, so schema drift fails loudly instead of
    silently. *)

val schema_version : int  (** 9 *)

type experiment = {
  exp_name : string;
  exp_seconds : float;  (** stage wall-clock *)
  exp_domains : int;  (** pool parallelism offered to the stage *)
  exp_parallel_efficiency : float;
      (** pool busy-time delta / (domains x wall); 1.0 = every domain was
          executing tasks for the stage's whole duration *)
}

type input = {
  domains : int;
  total_seconds : float;
  experiments : experiment list;  (** in run order *)
  clone_seconds : (string * float) list;
  mean_error_pct : (string * float) list;
  tuning : (string * Ditto_util.Jsonx.t) list;
      (** app -> {!Ditto_tune.Tuner.report_to_json} *)
  metrics : (string * float) list;  (** {!Ditto_obs.Obs.Metrics.snapshot} *)
  scorecards : Scorecard.t list;
  gates : (Gate.t * (string * float) list) list;
      (** per gate that ran, its "<app>/<scenario>/..." keys ({!Gate.flat});
          a gate missing here gets an empty section *)
  peak_heap_events : int;
      (** {!Ditto_sim.Engine.global_peak_heap_events} at document time *)
  tier_counts : (string * int) list;  (** app -> tiers in the original spec *)
}

val assemble : input -> Ditto_util.Jsonx.t

val validate : Ditto_util.Jsonx.t -> (unit, string) result
(** Checks every required field and its shape, including per-row scorecard
    fields; the error names the offending path. *)
