module Int_table = Ditto_util.Int_table

type t = {
  plat : Platform.t;
  n : int;
  l1i : Cache.t array;
  l1d : Cache.t array;
  l2 : Cache.t array;
  llc : Cache.t;
  prefetchers : Prefetcher.t array;
  itlbs : Tlb.t array;
  dtlbs : Tlb.t array;
  ctrs : Counters.t array;
  (* Coherence directory for shared lines: line -> (owner core, dirty),
     packed as [owner lsl 1 lor dirty]. It sits on the per-access hot
     path, hence the open-addressed int table. *)
  directory : Int_table.t;
  (* Per-core prefetch-fill callbacks, built once at [create] so
     [Prefetcher.observe] on an L1d miss does not allocate a closure. *)
  mutable prefetch_cb : (int -> unit) array;
}

let line_of addr = addr land lnot (Cache.line_bytes - 1)

let prefetch_fill t core addr =
  if not (Cache.probe t.l2.(core) addr) then begin
    ignore (Cache.access t.llc addr);
    ignore (Cache.access t.l2.(core) addr)
  end

let create (plat : Platform.t) ~ncores =
  let mk_l1 bytes = Cache.create ~size_bytes:bytes ~assoc:plat.Platform.l1_assoc () in
  let t =
    {
      plat;
      n = ncores;
      l1i = Array.init ncores (fun _ -> mk_l1 plat.Platform.l1i_bytes);
      l1d = Array.init ncores (fun _ -> mk_l1 plat.Platform.l1d_bytes);
      l2 =
        Array.init ncores (fun _ ->
            Cache.create ~size_bytes:plat.Platform.l2_bytes ~assoc:plat.Platform.l2_assoc ());
      llc =
        Cache.create ~replacement:Cache.Plru ~size_bytes:plat.Platform.llc_bytes
          ~assoc:plat.Platform.llc_assoc ();
      prefetchers = Array.init ncores (fun _ -> Prefetcher.create ());
      itlbs = Array.init ncores (fun _ -> Tlb.create ~l1_entries:128 ());
      dtlbs = Array.init ncores (fun _ -> Tlb.create ());
      ctrs = Array.init ncores (fun _ -> Counters.create ());
      directory = Int_table.create 4096;
      prefetch_cb = [||];
    }
  in
  t.prefetch_cb <- Array.init ncores (fun c -> fun addr -> prefetch_fill t c addr);
  t

let ncores t = t.n
let platform t = t.plat
let counters t core = t.ctrs.(core)

let set_counter t core ctr = t.ctrs.(core) <- ctr

(* Invalidate a shared line in every other core's private caches (the
   directory does not track exact sharers; core counts are small). *)
let invalidate_others t core addr =
  for c = 0 to t.n - 1 do
    if c <> core then begin
      ignore (Cache.invalidate t.l1d.(c) addr);
      ignore (Cache.invalidate t.l2.(c) addr)
    end
  done

let access_data t ~core ~addr ~write ~shared =
  let p = t.plat in
  let ctr = t.ctrs.(core) in
  let line = line_of addr in
  (* Coherence: a shared line dirty in another core forces a miss in the
     requester's private caches (the copy is stale). *)
  let coherence_steal =
    shared
    &&
    let v = Int_table.find t.directory line in
    v >= 0 && v lsr 1 <> core && (v land 1 = 1 || write)
  in
  if coherence_steal then begin
    ignore (Cache.invalidate t.l1d.(core) line);
    ignore (Cache.invalidate t.l2.(core) line)
  end;
  ctr.Counters.l1d_accesses <- ctr.Counters.l1d_accesses + 1;
  if write then ctr.Counters.bytes_written <- ctr.Counters.bytes_written + 8
  else ctr.Counters.bytes_read <- ctr.Counters.bytes_read + 8;
  let tlb_lat = Tlb.access t.dtlbs.(core) addr in
  if tlb_lat >= 30 then ctr.Counters.dtlb_misses <- ctr.Counters.dtlb_misses + 1;
  let latency =
    if Cache.access t.l1d.(core) line then p.Platform.lat_l1 + tlb_lat
    else begin
      ctr.Counters.l1d_misses <- ctr.Counters.l1d_misses + 1;
      ctr.Counters.l2_accesses <- ctr.Counters.l2_accesses + 1;
      Prefetcher.observe t.prefetchers.(core) ~pc:addr ~addr:line t.prefetch_cb.(core);
      if Cache.access t.l2.(core) line then p.Platform.lat_l2 + tlb_lat
      else begin
        ctr.Counters.l2_misses <- ctr.Counters.l2_misses + 1;
        ctr.Counters.llc_accesses <- ctr.Counters.llc_accesses + 1;
        if Cache.access t.llc line then
          if coherence_steal then begin
            ctr.Counters.coherence_misses <- ctr.Counters.coherence_misses + 1;
            p.Platform.lat_llc + 12 + tlb_lat (* cross-core snoop/transfer *)
          end
          else p.Platform.lat_llc + tlb_lat
        else begin
          ctr.Counters.llc_misses <- ctr.Counters.llc_misses + 1;
          p.Platform.lat_mem + tlb_lat
        end
      end
    end
  in
  (* Update directory ownership for shared lines. *)
  if shared then begin
    if write then begin
      let v = Int_table.find t.directory line in
      if v >= 0 && v lsr 1 <> core then invalidate_others t core line;
      Int_table.replace t.directory line ((core lsl 1) lor 1)
    end
    else begin
      let v = Int_table.find t.directory line in
      if v < 0 then Int_table.replace t.directory line (core lsl 1)
      else if v land 1 = 1 && v lsr 1 <> core then
        (* Downgrade: the reader now has a clean copy. *)
        Int_table.replace t.directory line (core lsl 1)
    end
  end;
  latency

let access_inst t ~core ~addr =
  let p = t.plat in
  let ctr = t.ctrs.(core) in
  let line = line_of addr in
  ctr.Counters.l1i_accesses <- ctr.Counters.l1i_accesses + 1;
  let tlb_lat = Tlb.access t.itlbs.(core) addr in
  if tlb_lat >= 30 then ctr.Counters.itlb_misses <- ctr.Counters.itlb_misses + 1;
  if Cache.access t.l1i.(core) line then tlb_lat
  else begin
    ctr.Counters.l1i_misses <- ctr.Counters.l1i_misses + 1;
    ctr.Counters.l2_accesses <- ctr.Counters.l2_accesses + 1;
    if Cache.access t.l2.(core) line then p.Platform.lat_l2 - p.Platform.lat_l1 + tlb_lat
    else begin
      ctr.Counters.l2_misses <- ctr.Counters.l2_misses + 1;
      ctr.Counters.llc_accesses <- ctr.Counters.llc_accesses + 1;
      if Cache.access t.llc line then p.Platform.lat_llc - p.Platform.lat_l1 + tlb_lat
      else begin
        ctr.Counters.llc_misses <- ctr.Counters.llc_misses + 1;
        p.Platform.lat_mem - p.Platform.lat_l1 + tlb_lat
      end
    end
  end

let flush t =
  Array.iter Cache.flush t.l1i;
  Array.iter Cache.flush t.l1d;
  Array.iter Cache.flush t.l2;
  Cache.flush t.llc;
  Array.iter Prefetcher.flush t.prefetchers;
  Array.iter Tlb.flush t.itlbs;
  Array.iter Tlb.flush t.dtlbs;
  Int_table.clear t.directory

let reset t =
  flush t;
  (* Fresh counter records, exactly like [create]: the previous run's
     results may still alias the old ones. *)
  for i = 0 to t.n - 1 do
    t.ctrs.(i) <- Counters.create ()
  done
