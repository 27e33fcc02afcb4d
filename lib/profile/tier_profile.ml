open Ditto_app

type t = {
  tier_name : string;
  skeleton : Skeleton.t;
  instmix : Instmix.t;
  working_set : Working_set.t;
  branches : Branches.t;
  deps : Deps.t;
  syscalls : Syscalls.t;
  heap_bytes : int;
  shared_bytes : int;
  file_bytes : int;
  background : t option;
}

let rec log2_ceil n = if n <= 1 then 0 else 1 + log2_ceil ((n + 1) / 2)

(* Warmup: the instrumented run streams [warmup] requests first so sweep
   caches and stream cursors reach steady state; compulsory first touches
   of resident structures must not count as streaming traffic. *)
let warmup = 60

let rec profile ?(requests = 160) ?(seed = 17) (tier : Spec.tier) =
  let live = ref false in
  let mix_obs, mix_fin = Instmix.observer ~live () in
  let ws_obs, ws_fin =
    Working_set.observer ~live ~max_log2:(log2_ceil (max 4096 tier.Spec.heap_bytes)) ()
  in
  let br_obs, br_fin = Branches.observer ~live () in
  let dep_obs, dep_fin = Deps.observer ~live () in
  let sys_obs, sys_fin = Syscalls.observer ~live () in
  let seen = ref 0 in
  let gate =
    {
      Stream.null_observer with
      Stream.on_request_end =
        (fun () ->
          incr seen;
          if !seen >= warmup then live := true);
    }
  in
  Stream.drive ~tier ~requests:(warmup + requests) ~seed
    [ gate; mix_obs; ws_obs; br_obs; dep_obs; sys_obs ];
  {
    tier_name = tier.Spec.tier_name;
    skeleton = Skeleton.detect tier ~samples:32 ~seed:(seed + 1);
    instmix = mix_fin ();
    working_set = ws_fin ();
    branches = br_fin ();
    deps = dep_fin ();
    syscalls = sys_fin ();
    heap_bytes = tier.Spec.heap_bytes;
    shared_bytes = tier.Spec.shared_bytes;
    file_bytes = tier.Spec.file_bytes;
    background =
      (match tier.Spec.background_handler with
      | None -> None
      | Some bg ->
          (* Profile the timer thread's body as a pseudo-tier. *)
          let pseudo =
            { tier with Spec.handler = (fun rng _ -> bg rng); background_handler = None }
          in
          Some (profile ~requests:24 ~seed:(seed + 7) pseudo));
  }

let pp fmt t =
  Format.fprintf fmt "@[<v>tier %s:@," t.tier_name;
  Format.fprintf fmt "  skeleton: %s server, %s client, %d workers%s, %d thread classes@,"
    (Spec.server_model_name t.skeleton.Skeleton.server_model)
    (Spec.client_model_name t.skeleton.Skeleton.client_model)
    t.skeleton.Skeleton.worker_threads
    (if t.skeleton.Skeleton.dynamic_threads then " (dynamic)" else "")
    (List.length t.skeleton.Skeleton.thread_classes);
  Format.fprintf fmt "  instmix: %.0f insts/req over %d iforms in %d clusters@,"
    t.instmix.Instmix.insts_per_request
    (List.length t.instmix.Instmix.iform_counts)
    (List.length t.instmix.Instmix.clusters);
  Format.fprintf fmt "  branches: %d static sites, %.1f%% of stream@,"
    t.branches.Branches.static_branches
    (100.0 *. t.branches.Branches.branch_fraction);
  Format.fprintf fmt "  memory: regular=%.2f shared=%.3f write=%.2f chase=%.2f@,"
    t.working_set.Working_set.regular_ratio t.working_set.Working_set.shared_ratio
    t.working_set.Working_set.write_ratio t.deps.Deps.chase_fraction;
  let show_ws label ws =
    let live = List.filter (fun (_, v) -> v > 0.5) ws in
    Format.fprintf fmt "  %s:" label;
    List.iter (fun (l, v) -> Format.fprintf fmt " 2^%d=%.0f" l v) live;
    Format.fprintf fmt "@,"
  in
  show_ws "d-working-sets (A_d/req)" t.working_set.Working_set.d_working_sets;
  show_ws "i-working-sets (E_i/req)" t.working_set.Working_set.i_working_sets;
  (match t.syscalls.Syscalls.file with
  | Some f ->
      Format.fprintf fmt "  file: %.2f reads/req x %dB (%.0f%% random, span %dB), %.2f writes/req@,"
        f.Syscalls.reads_per_request f.Syscalls.read_bytes_mean
        (100. *. f.Syscalls.random_ratio) f.Syscalls.offset_span f.Syscalls.writes_per_request
  | None -> ());
  Format.fprintf fmt "@]"

type app = {
  app_name : string;
  dag : Ditto_trace.Dag.t option;
  tiers : t list;
  entry : string;
  page_cache_hint : int option;
}

let profile_app ?requests ?seed ?dag (spec : Spec.t) =
  {
    app_name = spec.Spec.app_name;
    dag;
    tiers = List.map (fun tier -> profile ?requests ?seed tier) spec.Spec.tiers;
    entry = spec.Spec.entry;
    page_cache_hint = spec.Spec.page_cache_hint;
  }
