(** Compiles a {!Plan} against a DES engine.

    [arm] schedules the plan's start/end callbacks as ordinary engine events,
    so fault state flips at deterministic points of the (single-threaded)
    event order. Random drop decisions come from the injector's own
    [Rng] stream — seeded from the run seed — and are drawn in engine event
    order, so a given (seed, plan) pair degrades a run bit-identically
    regardless of the host domain-pool size. *)

type t

val create : engine:Ditto_sim.Engine.t -> seed:int -> Plan.t -> t
val plan : t -> Plan.t

val arm : t -> at:float -> unit
(** Schedule every plan event relative to absolute engine time [at] (the
    start of the load phase). *)

(** {1 Per-tier handles}

    The serving path reads fault state per handled request, worker poll,
    CPU segment and message, so it takes each tier's handle once, at
    set-up, and never looks a tier name up again. A handle is the tier's
    live state, not a copy: it sees every window edge after it was taken,
    [arm] included. *)

type tier

val tier : t -> string -> tier
(** The handle of the named tier ({!Plan.client_tier} names the load
    generator). A tier no plan event names stays healthy. *)

val up : tier -> bool
(** False while a [Crash] window covers the tier. *)

val slow : tier -> float
(** Product of active [Slowdown] factors for the tier (1.0 when healthy). *)

val disruptor : t -> src:string -> dst:string -> bytes:int -> Ditto_net.Socket.verdict
(** Delivery verdict for one message on the [src] -> [dst] link: [Drop] if
    either side is partitioned, else a seeded coin-flip against the combined
    drop probability, else [Delay] by the summed added latencies, else
    [Deliver]. The coin is drawn only while some link event on either side
    is active: when the last one ends, the drop probability is exactly 0.0
    again. Partial application ([disruptor t ~src ~dst]) looks both tiers
    up once and is the closure handed to [Socket.set_disruptor] when the
    socket pair is made. *)

val drops : t -> string -> int
(** Messages dropped so far on links whose source is the given tier. *)

val total_drops : t -> int
