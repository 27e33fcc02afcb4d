(** A simulated server node: memory hierarchy + cores, scheduler, NIC,
    disk and page cache, built from a {!Ditto_uarch.Platform} spec. *)

type t = {
  engine : Ditto_sim.Engine.t;
  platform : Ditto_uarch.Platform.t;
  mem : Ditto_uarch.Memory.t;
  cores : Ditto_uarch.Core_model.t array;
  sched : Ditto_os.Sched.t;
  nic : Ditto_net.Nic.t;
  loopback : Ditto_net.Nic.t;
      (** intra-node connections use this effectively-unbounded device so
          colocated tiers do not consume real NIC bandwidth *)
  disk : Ditto_storage.Disk.t;
  page_cache : Ditto_os.Page_cache.t;
}

val create :
  ?page_cache_bytes:int -> ?cores:int -> Ditto_sim.Engine.t -> Ditto_uarch.Platform.t -> t
(** [cores] overrides the platform core count (Fig. 11's core scaling);
    [page_cache_bytes] defaults to a quarter of platform RAM. *)

val ncores : t -> int

val release : t -> unit
(** Return the machine's (memory hierarchy, cores) pair to a domain-local
    free pool keyed on (platform, core count). A later {!create} with the
    same key recycles the pair after an exhaustive reset, skipping the
    dominant allocation cost; results stay bit-identical to a fresh build.
    The caller must not use [t] after releasing it. *)

val cycles_to_seconds : t -> float -> float
(** Convert pipeline cycles to wall-clock seconds at the platform's
    frequency. *)
