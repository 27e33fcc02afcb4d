(** Surge-fidelity scorecard: does the clone overload like the original?

    Built from a {!Ditto_core.Pipeline.validate_under} run driven by a
    rate profile (DESIGN.md section 14). On top of the windowed
    {!Timeline} comparison it scores the three behaviours that only exist
    under overload: how much load each side sheds (and when shedding
    starts), and whether the autoscaler's replica-count trajectory
    matches window for window. *)

type t = {
  app : string;
  scenario : string;  (** {!Ditto_core.Pipeline.scenario_name} of the run *)
  timeline : Timeline.t;  (** the windowed qps/p95 comparison underneath *)
  shed_fraction_actual : float;  (** whole-run shed / (shed + completed) *)
  shed_fraction_clone : float;
  shed_fraction_err_pp : float;  (** |actual - clone| in percentage points *)
  worst_shed_window_err_pp : float;  (** worst single-window shed-rate gap *)
  replica_traj_err_pp : float;
      (** share of (tier x window) cells whose live replica counts differ *)
  saturation_onset_actual : float option;
      (** start of the first shedding window, seconds from run start;
          [None] when the side never shed *)
  saturation_onset_clone : float option;
  saturation_onset_err_s : float;
      (** |actual - clone| onset, a never-shedding side counting as the
          run horizon *)
  scale_out_actual : int;  (** autoscaler actuations that added a replica *)
  scale_out_clone : int;
  scale_in_actual : int;
  scale_in_clone : int;
  shed_total_actual : int;
  shed_total_clone : int;
}

val of_chaos : app:string -> Ditto_core.Pipeline.chaos -> t
(** Raises [Invalid_argument] unless both sides carry windowed telemetry
    (a runner config with [timeline] set). *)

val print : t -> unit
(** The {!Timeline} table followed by the surge rows. *)

val flat : t -> (string * float) list
(** Flat gate keys
    [<app>/<scenario>/{worst_window_err_pct,mean_window_err_pct,
    reconverge_seconds,shed_fraction_err_pp,worst_shed_window_err_pp,
    replica_traj_err_pp,saturation_onset_err_s}] for the [surge] section
    of [bench --json] (schema v9), gated through {!Baseline}. *)
