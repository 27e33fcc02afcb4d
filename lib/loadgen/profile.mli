(** Canonical open-loop surge profiles (DESIGN.md section 14).

    Thin builders over {!Ditto_app.Rate} whose phase boundaries scale with
    the load duration, mirroring how {!Ditto_fault.Plan.canonical} scales
    its event times — so the same named scenario stresses a 2 s smoke run
    and a 60 s bench run proportionally. *)

val flash_crowd : ?mult:float -> duration:float -> unit -> Ditto_app.Rate.t
(** ["flash-crowd"]: rate spikes to [mult]× (default 4) at 30% of the run,
    holds, and recedes by 70% — the rest of the run measures recovery. *)

val diurnal : ?amplitude:float -> duration:float -> unit -> Ditto_app.Rate.t
(** ["diurnal"]: one full sinusoidal day compressed into the run,
    [1 ± amplitude] (default 0.5). *)

val ramp_to_saturation : duration:float -> unit -> Ditto_app.Rate.t
(** ["ramp-to-saturation"]: linear climb to 6× over 80% of the run, then
    held — finds the saturation onset. *)

val canonical : duration:float -> Ditto_app.Rate.t list
(** The three profiles above, in that order. *)

val names : string list

val by_name : duration:float -> string -> Ditto_app.Rate.t
(** Canonical profile by name; raises [Invalid_argument] on an unknown
    name (listing the known ones). *)
