open Ditto_isa
open Ditto_app
module Rng = Ditto_util.Rng
module Dist = Ditto_util.Dist
module P = Ditto_profile

let c_blocks = Ditto_obs.Obs.Metrics.counter "gen.blocks"
let made_block b = Ditto_obs.Obs.Metrics.incr c_blocks; b

type features = {
  f_syscalls : bool;
  f_inst_count : bool;
  f_inst_mix : bool;
  f_branches : bool;
  f_i_mem : bool;
  f_d_mem : bool;
  f_deps : bool;
}

let all_features =
  {
    f_syscalls = true;
    f_inst_count = true;
    f_inst_mix = true;
    f_branches = true;
    f_i_mem = true;
    f_d_mem = true;
    f_deps = true;
  }

let no_features =
  {
    f_syscalls = false;
    f_inst_count = false;
    f_inst_mix = false;
    f_branches = false;
    f_i_mem = false;
    f_d_mem = false;
    f_deps = false;
  }

let stage = function
  | 'A' -> no_features
  | 'B' -> { no_features with f_syscalls = true }
  | 'C' -> { no_features with f_syscalls = true; f_inst_count = true }
  | 'D' -> { no_features with f_syscalls = true; f_inst_count = true; f_inst_mix = true }
  | 'E' ->
      {
        no_features with
        f_syscalls = true;
        f_inst_count = true;
        f_inst_mix = true;
        f_branches = true;
      }
  | 'F' ->
      {
        no_features with
        f_syscalls = true;
        f_inst_count = true;
        f_inst_mix = true;
        f_branches = true;
        f_i_mem = true;
      }
  | 'G' -> { all_features with f_deps = false }
  | 'H' -> all_features
  | c -> invalid_arg (Printf.sprintf "Body_gen.stage: %c" c)

(* Registers: r9 is the loop counter, r10 the data base, r11 the
   pointer-chase register (Fig. 3's reserved registers); the rest clone
   dependency behaviour. *)
let gp_pool = Array.init 9 Block.gp
let xmm_pool = Array.init 12 Block.xmm

let rec log2_floor n = if n <= 1 then 0 else 1 + log2_floor (n / 2)

type genstate = {
  rng : Rng.t;
  mutable pos : int;
  last_def : int array;
}

(* Pick a register from [pool] whose last definition is closest to the
   sampled dependency distance. *)
let pick_by_distance st pool distance =
  let best = ref pool.(0) and best_err = ref max_int in
  Array.iter
    (fun r ->
      let d = st.pos - st.last_def.(r) in
      let err = abs (d - distance) in
      if err < !best_err then begin
        best_err := err;
        best := r
      end)
    pool;
  !best

let generate ~(profile : P.Tier_profile.t) ~(space : Layout.space) ~features ~(params : Params.t)
    ~downstream ~seed =
  let rng = Rng.create seed in
  let st = { rng; pos = 0; last_def = Array.make Block.num_regs (-4096) } in
  let heap_log2 = log2_floor (max 4096 profile.P.Tier_profile.heap_bytes) in
  let ws = profile.P.Tier_profile.working_set in
  let mix = profile.P.Tier_profile.instmix in
  let brs = profile.P.Tier_profile.branches in
  let deps = profile.P.Tier_profile.deps in

  (* Samplers, built once per call: each draw below takes the same
     uniforms in the same order as sampling the profile directly. *)
  let mix_sampler = P.Instmix.iform_sampler mix in
  let site_sampler = P.Branches.site_sampler brs in
  let raw_distance = P.Deps.distance_sampler deps.P.Deps.raw in
  let addr_distance = P.Deps.distance_sampler deps.P.Deps.raw_addr in
  let waw_distance = P.Deps.distance_sampler deps.P.Deps.waw in
  (* REP-prefixed instructions are rare but account for whole cache-line
     bursts; they are planned as a dedicated per-request block below rather
     than sampled (a sampled rep landing in a cold block would execute
     almost never while carrying most of the memory traffic). *)
  let rec sample_iform () =
    if not features.f_inst_mix then Iform.by_name "ADD_GPR64_GPR64"
    else
      let f = mix_sampler rng in
      if f.Iform.klass = Iclass.Rep_string then sample_iform () else f
  in
  (* Bulk REP copies stream the largest working set and consume their line
     touches from its A_d mass; the remaining mass drives scattered loads
     and stores. Without this split the clone turns one overlapped burst
     into serial-ish scattered misses and loses IPC. *)
  let rep_lines_per_request =
    mix.P.Instmix.rep_fraction *. mix.P.Instmix.insts_per_request
    *. (mix.P.Instmix.rep_mean_count /. 64.0)
  in
  let largest_live_bin =
    List.fold_left
      (fun acc (l, a) -> if a > 0.01 && l > acc then l else acc)
      6 ws.P.Working_set.d_working_sets
  in
  let d_working_sets_scattered =
    let remaining = ref rep_lines_per_request in
    List.map
      (fun (l, a) ->
        let eat = Float.min a !remaining in
        remaining := !remaining -. eat;
        (l, a -. eat))
      (List.sort (fun (a, _) (b, _) -> compare b a) ws.P.Working_set.d_working_sets)
  in
  (* The mix contains more memory-operand instructions than the profiled
     access mass A_d (register spills and hot locals resolve to the same
     line). The surplus must stay on the hottest window or the clone
     over-scatters and inflates collateral evictions. *)
  let mem_fraction =
    let total = List.fold_left (fun a (_, c) -> a + c) 0 mix.P.Instmix.iform_counts in
    let mem =
      List.fold_left
        (fun a (id, c) ->
          let f = Iform.of_id id in
          if f.Iform.mem_width > 0 && f.Iform.klass <> Iclass.Rep_string then a + c else a)
        0 mix.P.Instmix.iform_counts
    in
    if total = 0 then 0.0 else float_of_int mem /. float_of_int total
  in
  let expected_mem_per_request = mix.P.Instmix.insts_per_request *. mem_fraction in
  let scattered_total =
    List.fold_left (fun a (_, x) -> a +. x) 0.0 d_working_sets_scattered
  in
  let hot_slack = Float.max 0.0 (expected_mem_per_request -. scattered_total) in
  (* Accesses to large working sets are emitted in bursts of [burst_len]
     (see the block builder), so their selection mass divides accordingly. *)
  let burst_len = 14 in
  let burst_bin l = l >= 18 in
  let d_bin_sampler =
    let live =
      (6, hot_slack)
      :: List.filter (fun (_, a) -> a > 0.01) d_working_sets_scattered
    in
    let live =
      List.map
        (fun (l, a) ->
          if burst_bin l then (l, a *. params.Params.big_mass_scale /. float_of_int burst_len)
          else (l, a))
        live
    in
    let live = List.filter (fun (_, a) -> a > 0.01) live in
    match live with [] -> None | l -> Some (Dist.discrete l)
  in
  let shift_bin l =
    let shift =
      int_of_float (Float.round (Float.log2 (Float.max 0.125 params.Params.d_ws_scale)))
    in
    min heap_log2 (max 6 (l + shift))
  in
  let sample_d_bin () =
    if not features.f_d_mem then 6
    else match d_bin_sampler with None -> 6 | Some s -> shift_bin (Dist.discrete_sample s rng)
  in
  (* Streaming structures (REP targets, chase chains) keep their profiled
     size: scaling them with the small-window knob can push a
     larger-than-LLC stream below LLC capacity and erase its misses. *)
  let sample_d_bin_unscaled () =
    if not features.f_d_mem then 6
    else
      match d_bin_sampler with
      | None -> 6
      | Some s -> min heap_log2 (max 6 (Dist.discrete_sample s rng))
  in
  (* Fig. 4: accesses of a 2^l working set live in the window
     [2^(l-1), 2^l) and loop within it. *)
  let window_of_bin l =
    if l <= 6 then (0, 64) else (1 lsl (l - 1), 1 lsl (l - 1))
  in
  let mem_pattern_for ~is_load =
    let l = sample_d_bin () in
    let start, span = window_of_bin l in
    let shared =
      features.f_d_mem
      && Rng.float rng 1.0 < ws.P.Working_set.shared_ratio
      && profile.P.Tier_profile.shared_bytes >= 4096
    in
    let region = if shared then space.Layout.shared else space.Layout.heap in
    let span = min span (max 64 (region.Block.region_bytes - start)) in
    let start = if start + span > region.Block.region_bytes then 0 else start in
    let regular =
      (not features.f_d_mem) || Rng.float rng 1.0 < ws.P.Working_set.regular_ratio
    in
    ignore is_load;
    if regular then (Block.Seq_stride { region; start; stride = 64; span }, span)
    else (Block.Rand_uniform { region; start; span }, 0)
  in
  let chase_pattern () =
    (* MLP cloning: chase windows come from the larger working sets. *)
    let l = max 12 (sample_d_bin_unscaled ()) in
    let l = min l heap_log2 in
    let start, span = window_of_bin l in
    Block.Chase { region = space.Layout.heap; start; span }
  in
  let branch_spec () =
    if not features.f_branches then { Block.m = 1; n = 1; invert = false }
    else begin
      let site = site_sampler rng in
      {
        Block.m = max 0 (min 10 (site.P.Branches.m + params.Params.branch_m_shift));
        n = max 0 (min 10 (site.P.Branches.n + params.Params.branch_n_shift));
        invert = site.P.Branches.invert;
      }
    end
  in
  let chase_prob =
    if features.f_deps then deps.P.Deps.chase_fraction *. params.Params.chase_scale else 0.0
  in
  let emit_template () =
    st.pos <- st.pos + 1;
    let iform = sample_iform () in
    let is_xmm = Array.exists (fun o -> o = Iclass.Op_xmm) iform.Iform.operands in
    let pool = if is_xmm then xmm_pool else gp_pool in
    let pick_src () =
      if features.f_deps then
        pick_by_distance st pool (raw_distance rng)
      else pick_by_distance st pool 1 (* strongest dependencies: chain *)
    in
    (* Address registers get their own measured distance profile: memory
       parallelism depends on how early addresses are known. *)
    let pick_addr_src () =
      if features.f_deps then
        pick_by_distance st pool (addr_distance rng)
      else pick_by_distance st pool 1
    in
    let pick_dst () =
      if features.f_deps then
        pick_by_distance st pool (waw_distance rng)
      else pool.(0)
    in
    let klass = iform.Iform.klass in
    let temp =
      if Iclass.is_branch klass then
        Block.temp iform ~branch:(branch_spec ())
      else if klass = Iclass.Rep_string then begin
        let l = if features.f_d_mem then min heap_log2 largest_live_bin else 6 in
        let start, span = window_of_bin l in
        let span = min span (max 64 (space.Layout.heap.Block.region_bytes - start)) in
        let t =
          Block.temp iform
            ~srcs:[| Block.gp 6 |]
            ~mem:(Block.Seq_stride { region = space.Layout.heap; start; stride = 64; span })
            ~rep_count:(max 64 (int_of_float mix.P.Instmix.rep_mean_count))
        in
        if span >= 128 then Block.set_phase t (Rng.int rng (span / 64));
        t
      end
      else if iform.Iform.mem_width > 0 then begin
        let is_load = Iclass.is_memory_read klass in
        if is_load && Rng.float st.rng 1.0 < chase_prob then
          (* mov r11, [r11]: serialised pointer chase. *)
          Block.temp (Iform.by_name "MOV_GPR64_MEM") ~dst:(Block.gp 11)
            ~srcs:[| Block.gp 11 |]
            ~mem:(chase_pattern ())
        else begin
          let src = pick_addr_src () in
          let pattern, phase_span = mem_pattern_for ~is_load in
          (* Distinct hard-coded phase per instruction: templates sharing a
             window must not walk it in lockstep (Fig. 4 assigns each
             access its own offset). *)
          let phase span = if span >= 128 then Rng.int rng (span / 64) else 0 in
          let t =
            if is_load then begin
              let dst = pick_dst () in
              let t = Block.temp iform ~dst ~srcs:[| src |] ~mem:pattern in
              st.last_def.(dst) <- st.pos;
              t
            end
            else Block.temp iform ~srcs:[| src |] ~mem:pattern
          in
          Block.set_phase t (phase phase_span);
          t
        end
      end
      else begin
        let src = pick_src () in
        let dst = pick_dst () in
        let t = Block.temp iform ~dst ~srcs:[| src; dst |] in
        st.last_def.(dst) <- st.pos;
        t
      end
    in
    temp
  in
  (* Instruction blocks per the i-working-set decomposition (Eq. 2). *)
  let blocks =
    if not features.f_inst_count then []
    else begin
      let bins =
        if features.f_i_mem then
          List.filter (fun (_, e) -> e >= 8.0) ws.P.Working_set.i_working_sets
        else [ (9, mix.P.Instmix.insts_per_request) ] (* compact 512B footprint *)
      in
      let total_profiled = List.fold_left (fun a (_, e) -> a +. e) 0.0 bins in
      let target_total = mix.P.Instmix.insts_per_request *. params.Params.inst_scale in
      let norm = if total_profiled <= 0.0 then 1.0 else target_total /. total_profiled in
      List.mapi
        (fun bi (j, execs) ->
          let execs = execs *. norm in
          let footprint =
            let scaled =
              int_of_float (float_of_int (1 lsl j) *. params.Params.i_ws_scale)
            in
            max 64 (min (1 lsl 18) scaled)
          in
          (* Emit templates until [limit] encoded bytes. *)
          let emit_until limit =
            let temps = ref [] and bytes = ref 0 and count = ref 0 in
            let push t =
              temps := t :: !temps;
              bytes := !bytes + t.Block.iform.Iform.bytes;
              incr count
            in
            while !bytes < limit do
              let t = emit_template () in
              push t;
              (* Large-working-set accesses come from copy/scan loops: emit
                 them in bursts so their misses overlap in the ROB the way
                 the original's do (sampler mass divided by [burst_len]). *)
              (match t.Block.mem with
              | Block.Seq_stride { region; start; span; stride }
                when span >= 1 lsl 17 && t.Block.iform.Iform.mem_width > 0 ->
                  for b = 1 to burst_len - 1 do
                    let burst =
                      Block.temp t.Block.iform ~dst:t.Block.dst ~srcs:t.Block.srcs
                        ~mem:(Block.Seq_stride { region; start; span; stride })
                    in
                    Block.set_phase burst (t.Block.seq_phase + (b * (span / 64 / burst_len)));
                    push burst
                  done
              | Block.Rand_uniform { region; start; span }
                when span >= 1 lsl 17 && t.Block.iform.Iform.mem_width > 0 ->
                  for _ = 1 to burst_len - 1 do
                    push
                      (Block.temp t.Block.iform ~dst:t.Block.dst ~srcs:t.Block.srcs
                         ~mem:(Block.Rand_uniform { region; start; span }))
                  done
              | _ -> ())
            done;
            (List.rev !temps, !count)
          in
          let window k = Layout.code_window space ~index:(64 + (bi * 80) + (k * 18)) in
          let probe_temps, probe_count = emit_until (min footprint (1 lsl 14)) in
          let passes = execs /. float_of_int (max 1 probe_count) in
          if passes >= 1.0 && footprint <= 1 lsl 14 then begin
            (* Hot loop: the footprint fits a small block re-executed many
               times per request (Fig. 3's inner loops). *)
            let block =
              made_block
                (Block.make ~label:(Printf.sprintf "synth_i%d" j) ~code_base:(window 0)
                   probe_temps)
            in
            (`Loop (block, max 1 (int_of_float (Float.round passes))), execs)
          end
          else begin
            (* Straight-line code: executed front to back once per request.
               The per-request stream is sized to the bin's executions; the
               cross-request instruction footprint is widened by rotating
               among [replicas] identical-statistics copies at distinct
               addresses — this is what i_ws_scale tunes, so footprint
               grows without distorting instruction counts. *)
            let per_request_bytes =
              max 64 (min (1 lsl 17) (int_of_float (execs *. 3.7)))
            in
            let replicas =
              max 1 (min 8 (int_of_float (Float.round params.Params.i_ws_scale)))
            in
            let copies =
              Array.init replicas (fun k ->
                  let temps, _ = emit_until per_request_bytes in
                  made_block
                    (Block.make
                       ~label:(Printf.sprintf "synth_i%d_r%d" j k)
                       ~code_base:(window k) temps))
            in
            (`Replicated copies, execs)
          end)
        bins
    end
  in
  (* Hot blocks first: the loop nest in Fig. 3 runs small blocks often. *)
  let blocks =
    List.sort (fun (_, a) (_, b) -> compare b a) blocks |> List.map fst
  in
  (* Planned REP block: executes [rep_per_request] times per request on the
     profiled largest working set, reproducing the original's bulk-copy
     bursts deterministically. *)
  let rep_per_request =
    if features.f_inst_count && mix.P.Instmix.rep_fraction > 0.0 then
      mix.P.Instmix.rep_fraction *. mix.P.Instmix.insts_per_request *. params.Params.inst_scale
    else 0.0
  in
  let rep_block =
    if rep_per_request <= 0.0 then None
    else begin
      let l = if features.f_d_mem then min heap_log2 largest_live_bin else 6 in
      let start, span = window_of_bin l in
      let span = min span (max 64 (space.Layout.heap.Block.region_bytes - start)) in
      (* Each burst starts at a random record and streams sequentially
         within it — the copy semantics bulk operations actually have. *)
      let t =
        Block.temp (Iform.by_name "REP_MOVSB")
          ~srcs:[| Block.gp 6 |]
          ~mem:(Block.Rand_uniform { region = space.Layout.heap; start; span })
          ~rep_count:(max 64 (int_of_float mix.P.Instmix.rep_mean_count))
      in
      Some
        (made_block
           (Block.make ~label:"synth_rep" ~code_base:(Layout.code_window space ~index:60) [ t ]))
    end
  in
  let file = profile.P.Tier_profile.syscalls.P.Syscalls.file in
  let misc = profile.P.Tier_profile.syscalls.P.Syscalls.misc in
  let sample_count rng mean =
    let base = int_of_float mean in
    base + (if Rng.float rng 1.0 < mean -. float_of_int base then 1 else 0)
  in
  (* The generated handler. *)
  fun req_rng req ->
    let compute =
      List.map
        (fun block ->
          match block with
          | `Loop (b, iterations) -> Spec.Compute (b, iterations)
          | `Replicated copies ->
              Spec.Compute (copies.(req mod Array.length copies), 1))
        blocks
    in
    let compute =
      match rep_block with
      | None -> compute
      | Some rb ->
          let n = sample_count req_rng rep_per_request in
          if n > 0 then compute @ [ Spec.Compute (rb, n) ] else compute
    in
    let n = List.length compute in
    let seg k = List.filteri (fun i _ -> i * 3 / max 1 n = k) compute in
    let reads, writes =
      if not features.f_syscalls then ([], [])
      else
        match file with
        | None -> ([], [])
        | Some f ->
            let reads =
              List.init (sample_count req_rng f.P.Syscalls.reads_per_request) (fun _ ->
                  Spec.File_read
                    {
                      offset =
                        4096
                        * Rng.int req_rng (max 1 (f.P.Syscalls.offset_span / 4096));
                      bytes = max 1 f.P.Syscalls.read_bytes_mean;
                      random = Rng.float req_rng 1.0 < f.P.Syscalls.random_ratio;
                    })
            in
            let writes =
              List.init (sample_count req_rng f.P.Syscalls.writes_per_request) (fun _ ->
                  Spec.File_write { bytes = max 1 f.P.Syscalls.write_bytes_mean })
            in
            (reads, writes)
    in
    let misc_ops =
      if not features.f_syscalls then []
      else
        List.concat_map
          (fun (kind, mean) ->
            List.init (sample_count req_rng mean) (fun _ -> Spec.Syscall kind))
          misc
    in
    let calls =
      List.concat_map
        (fun (e : Ditto_trace.Dag.edge) ->
          List.init (sample_count req_rng e.Ditto_trace.Dag.calls_per_request) (fun _ ->
              Spec.Call
                {
                  target = e.Ditto_trace.Dag.callee;
                  req_bytes = e.Ditto_trace.Dag.req_bytes;
                  resp_bytes = e.Ditto_trace.Dag.resp_bytes;
                }))
        downstream
    in
    seg 0 @ reads @ seg 1 @ calls @ seg 2 @ writes @ misc_ops
