(** The validation gates: each runs original and clone side by side under
    a changed condition (paper §6) and scores how far the clone strays.

    The set is closed. A gate's {!name} is at once its [bench] experiment,
    its section of the [bench --json] document, the prefix of its keys in
    the committed baseline ({!Baseline.flatten}) and its
    [ditto_cli validate --gates] value, so {!Bench_json}, {!Baseline},
    [bench] and [ditto_cli] all iterate {!all} instead of naming gates.

    Each gate fixes its default scenario, the recorders it asks of the
    runner, its [Ditto_core.Pipeline] call, its report and its flat keys:

    - [chaos]: each canonical fault plan under [validate_under]'s default
      armour; {!Scorecard.of_chaos}.
    - [timeline]: [kill-mid-tier] under the same armour, with windowed
      telemetry; {!Timeline.of_timelines}.
    - [critpath]: steady state under plain [Pipeline.validate], with
      request tracing; {!Critpath.of_comparison}.
    - [surge]: [kill-mid-tier] composed with a 4x [flash-crowd], with
      telemetry, a shed threshold of 48 queued requests per replica and
      the default autoscaling policy; {!Surge.of_chaos}.

    Every gate validates on platform A. *)

type t = Chaos | Timeline | Critpath | Surge

val all : t list
(** In document order: chaos, timeline, critpath, surge. *)

val name : t -> string
val of_name : string -> t option

type run = {
  scenario : string;  (** ["<plan>"], ["<plan>+<profile>"], ["steady"], ... *)
  actual : Ditto_app.Service.result;
      (** both sides' service results, carrying the collectors the gate
          asked for ([timeline] / [reqtrace]) *)
  synthetic : Ditto_app.Service.result;
  flat : (string * float) list;  (** ["<app>/<scenario>/..."] keys *)
  print : unit -> unit;  (** the gate's terminal report *)
}

type result = {
  runs : run list;  (** one per scenario, in run order *)
  smoke : string;
      (** the greppable summary line: [chaos-totals: ...],
          [TIMELINE-SMOKE-OK ...], [CRITPATH-SMOKE-OK ...] or
          [SURGE-SMOKE-OK ...] *)
}

val run :
  ?pool:Ditto_util.Pool.t ->
  ?plan:Ditto_fault.Plan.t ->
  ?profile:Ditto_app.Rate.t ->
  t ->
  app:string ->
  load:Ditto_app.Service.load ->
  Ditto_core.Pipeline.clone_result ->
  result
(** Run the gate on a clone at [load]. [plan] and [profile] replace the
    fault plan and rate profile of the gate's default scenario (for
    [chaos], [plan] replaces the list of canonical plans). *)

val flat : result -> (string * float) list
(** Every run's flat keys, in run order. *)

val print : result -> unit
(** Every run's report, then the smoke line. *)
