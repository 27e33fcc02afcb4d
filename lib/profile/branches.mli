(** Branch-behaviour profiler (§4.4.3).

    Per static conditional branch, measures the taken rate and the
    transition rate (how often the outcome flips between consecutive
    executions), quantizes both on the paper's log scale (2^-1 .. 2^-10),
    and reports the joint distribution over (m, n, majority-direction)
    bins plus the static branch count and dynamic branch fraction. *)

type site = { m : int; n : int; invert : bool }
(** A quantized behaviour bin: minority-direction rate 2^-m, transition
    rate 2^-n, [invert] when the branch is mostly taken. *)

type t = {
  sites : (site * float) list;  (** bin -> probability over static branches *)
  static_branches : int;
  branch_fraction : float;  (** conditional branches per dynamic instruction *)
}

val observer : ?live:bool ref -> unit -> Stream.observer * (unit -> t)

val quantize : taken:int -> transitions:int -> total:int -> site
(** Quantization of one branch site's counts (exposed for tests). *)

val site_sampler : t -> (Ditto_util.Rng.t -> site)
(** [site_sampler t] builds, once, a sampler of sites weighted by
    [t.sites]; each draw takes one uniform. Without a positive weight it
    yields [{m = 2; n = 3; invert = false}] without drawing. *)
