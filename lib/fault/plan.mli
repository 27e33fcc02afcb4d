(** Declarative fault plans: a timed schedule of failures to inject into one
    service run.

    A plan is data, not behaviour — it is compiled against the DES clock by
    {!Injector}, so the same plan + the same seed produces bit-identical
    degraded results regardless of the host pool size. Times are in seconds
    relative to the start of the load phase; tiers are referenced by their
    [Spec] tier name (the pseudo-tier {!client_tier} names the load
    generator's side of the entry link). *)

type kind =
  | Crash of { down_for : float }
      (** The tier's process dies at [at] and restarts [down_for] seconds
          later. In-flight and arriving requests queue at the (still-open)
          listen socket, so the restart sees the accumulated backlog. *)
  | Slowdown of { factor : float; lasts : float }
      (** CPU brown-out: every on-CPU segment of the tier runs [factor]×
          slower for [lasts] seconds. Overlapping slowdowns compose
          multiplicatively. *)
  | Link of { add_latency : float; drop : float; lasts : float }
      (** Degrade every link touching the tier: each delivery gains
          [add_latency] seconds and is dropped with probability [drop]
          (drawn from the injector's own seeded RNG). *)
  | Partition of { lasts : float }
      (** NIC partition: every delivery to or from the tier is dropped for
          [lasts] seconds. *)

type event = { at : float; tier : string; kind : kind }
type t = { plan_name : string; events : event list }

val client_tier : string
(** Reserved tier name ["client"] for the load-generator end of links. *)

val make : name:string -> event list -> t
(** Events are kept sorted by [at] (stable). Raises [Invalid_argument] on a
    negative time, factor < 1, drop outside [0,1], or non-positive
    duration. *)

val validate : ?duration:float -> ?strict:bool -> tiers:string list -> t -> unit
(** Raises [Invalid_argument] naming the first event whose [tier] is neither
    in [tiers] nor {!client_tier}. With [duration], an event scheduled at or
    past it (which can never fire) is reported: a warning on stderr by
    default, [Invalid_argument] under [strict] (default false). *)

(** {1 Canonical plans}

    The three scenarios of the chaos gate ([Ditto_report.Gate]).
    [duration] is the load duration the plan should fit inside; event times
    scale with it. [tiers] must be in [Spec.t] order (entry first). *)

val kill_mid_tier : ?down_frac:float -> duration:float -> tiers:string list -> unit -> t
val brownout_leaf : ?factor:float -> duration:float -> tiers:string list -> unit -> t
val flaky_link : ?drop:float -> ?add_latency:float -> duration:float -> tiers:string list -> unit -> t

val canonical : duration:float -> tiers:string list -> t list
(** The three plans above, in that order. *)

(** {1 JSON} *)

val to_json : t -> Ditto_util.Jsonx.t
val of_json : Ditto_util.Jsonx.t -> t
(** Raises [Jsonx.Parse_error] on shape errors and [Invalid_argument] on
    out-of-range values (via {!make}). *)

val load : string -> t
(** Read a plan from a JSON file. *)

val save : path:string -> t -> unit
