(** Benchmark baseline store and regression gate.

    A baseline is a committed snapshot of the harness's accuracy metrics
    (the mean per-axis validation errors plus per-scorecard-row errors),
    each in percentage points, with per-metric tolerances. [bench --check]
    diffs the current run against it and exits non-zero on regression, so
    CI catches fidelity drift the way it catches test failures. *)

type t = {
  tolerance_pp : (string * float) list;
      (** allowed worsening in percentage points; keyed by full metric key
          or by its last ['/']-component, with a ["default"] fallback *)
  metrics : (string * float) list;  (** metric key -> error percent *)
}

type regression = {
  key : string;
  current : float;
  baseline : float;
  allowed_pp : float;  (** tolerance applied to this key *)
}

val default_tolerances : (string * float) list
(** 2.0pp default; looser for the noisiest axes (LLC, branch) and for tail
    latency. *)

val tolerance_for : t -> string -> float
(** Exact key match first, then the last ['/']-component, then
    ["default"] (2.0pp if absent). *)

val flatten : Ditto_util.Jsonx.t -> (string * float) list
(** Extract comparable metrics from a [bench --json] document:
    ["mean_error_pct/<axis>"] entries,
    ["scorecards/<app>/<tier>/<metric>"] row errors, every gate section's
    keys under ["<gate>/"] (["chaos/<app>/<plan>/<metric>"], ... for each
    of {!Gate.all}, in that order), and the
    ["experiments/<name>/wall_seconds"] budgets. *)

val make : ?tolerance_pp:(string * float) list -> (string * float) list -> t
(** A baseline with the given metrics. *)

val merge : into:t -> (string * float) list -> t
(** Overlay freshly measured metrics onto an existing baseline: keys in
    [current] replace or extend [into]'s metrics, keys only in [into] are
    kept — so a partial run (e.g. [--apps] or a chaos-only pass) can update
    its slice without discarding the rest of the committed baseline.
    Tolerances pinned by [into] are preserved; default tolerances for
    metric families [into] predates are filled in. *)

val diff : t -> (string * float) list -> regression list * int
(** [diff baseline current] returns the regressions (current error exceeds
    baseline + tolerance) and the number of keys compared. Keys present on
    only one side are skipped — adding or removing a metric is not a
    regression. *)

val load : string -> t
(** Raises {!Ditto_util.Jsonx.Parse_error} on malformed input. *)

val save : path:string -> t -> unit
val to_json : t -> Ditto_util.Jsonx.t
val of_json : Ditto_util.Jsonx.t -> t
