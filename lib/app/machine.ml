type t = {
  engine : Ditto_sim.Engine.t;
  platform : Ditto_uarch.Platform.t;
  mem : Ditto_uarch.Memory.t;
  cores : Ditto_uarch.Core_model.t array;
  sched : Ditto_os.Sched.t;
  nic : Ditto_net.Nic.t;
  loopback : Ditto_net.Nic.t;
  disk : Ditto_storage.Disk.t;
  page_cache : Ditto_os.Page_cache.t;
}

(* Building the (memory hierarchy, cores) pair dominates machine
   construction cost: the LLC alone is hundreds of thousands of tag/stamp
   entries, and a clone pipeline creates dozens of machines per platform.
   Released pairs are parked here (domain-local, keyed structurally on
   (platform, ncores)) and recycled by [create] after a [reset] restores
   the pristine post-create state — results stay bit-identical because
   reset is exhaustive, which the test suite pins. The engine-bearing
   components (scheduler, NICs, disk, page cache) are cheap and tied to
   the per-run engine, so they are always rebuilt. *)
type pooled = Ditto_uarch.Memory.t * Ditto_uarch.Core_model.t array

let pool_key : (Ditto_uarch.Platform.t * int, pooled list ref) Hashtbl.t Domain.DLS.key =
  Domain.DLS.new_key (fun () -> Hashtbl.create 8)

let max_pooled_per_key = 4

let create ?page_cache_bytes ?cores engine (platform : Ditto_uarch.Platform.t) =
  let ncores = match cores with Some n -> n | None -> platform.Ditto_uarch.Platform.cores in
  let mem, cores =
    let tbl = Domain.DLS.get pool_key in
    match Hashtbl.find_opt tbl (platform, ncores) with
    | Some ({ contents = (mem, cores) :: rest } as cell) ->
        cell := rest;
        Ditto_uarch.Memory.reset mem;
        Array.iter Ditto_uarch.Core_model.reset cores;
        (mem, cores)
    | Some _ | None ->
        let mem = Ditto_uarch.Memory.create platform ~ncores in
        (mem, Array.init ncores (fun core -> Ditto_uarch.Core_model.create mem ~core))
  in
  let page_cache_bytes =
    match page_cache_bytes with
    | Some b -> b
    | None -> platform.Ditto_uarch.Platform.ram_gb * 1024 * 1024 * 1024 / 4
  in
  {
    engine;
    platform;
    mem;
    cores;
    sched = Ditto_os.Sched.create engine ~ncores ();
    nic = Ditto_net.Nic.create engine ~gbps:platform.Ditto_uarch.Platform.net_gbps;
    loopback = Ditto_net.Nic.create engine ~gbps:400.0;
    disk = Ditto_storage.Disk.create engine platform.Ditto_uarch.Platform.disk;
    page_cache = Ditto_os.Page_cache.create ~capacity_bytes:page_cache_bytes;
  }

let release t =
  let tbl = Domain.DLS.get pool_key in
  let key = (t.platform, Array.length t.cores) in
  let cell =
    match Hashtbl.find_opt tbl key with
    | Some c -> c
    | None ->
        let c = ref [] in
        Hashtbl.add tbl key c;
        c
  in
  if List.length !cell < max_pooled_per_key then cell := (t.mem, t.cores) :: !cell

let ncores t = Array.length t.cores

let cycles_to_seconds t cycles =
  cycles /. (t.platform.Ditto_uarch.Platform.freq_ghz *. 1e9)
