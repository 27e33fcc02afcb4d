open Ditto_uarch
open Ditto_app
module P = Ditto_profile
module Params = Ditto_gen.Params
module Obs = Ditto_obs.Obs
module J = Ditto_util.Jsonx

type iteration = {
  iter : int;
  worst_error : float;
  errors : (string * float) list;
  objective : float;
  winner : int;
  params : (string * Params.t) list;
}

type report = {
  iterations : iteration list;
  converged : bool;
  final_params : (string * Params.t) list;
  speculation : int;
  attribution : (string * float) list;
}

(* Per-knob-group residual attribution: fold the final iterate's
   "tier/metric" errors down to "tier/group" (group = the knob group that
   owns the metric, per Params.group_of_metric), keeping the worst residual
   in each group. This is what lets a scorecard row name the knobs that own
   its remaining error. *)
let attribution_of_errors errors =
  let tbl = Hashtbl.create 8 in
  List.iter
    (fun (key, e) ->
      match String.index_opt key '/' with
      | None -> ()
      | Some i -> (
          let tier = String.sub key 0 i in
          let metric = String.sub key (i + 1) (String.length key - i - 1) in
          match Params.group_of_metric metric with
          | None -> ()
          | Some g ->
              let gkey = tier ^ "/" ^ Params.group_name g in
              let cur = Option.value ~default:0.0 (Hashtbl.find_opt tbl gkey) in
              Hashtbl.replace tbl gkey (Float.max cur e)))
    errors;
  Hashtbl.fold (fun k v acc -> (k, v) :: acc) tbl []
  |> List.sort (fun (a, _) (b, _) -> compare a b)

let c_won = Obs.Metrics.counter "tuner.candidates_won"
let c_lost = Obs.Metrics.counter "tuner.candidates_lost"

let params_to_json (p : Params.t) =
  J.Obj
    [
      ("inst_scale", J.Num p.Params.inst_scale);
      ("i_ws_scale", J.Num p.Params.i_ws_scale);
      ("d_ws_scale", J.Num p.Params.d_ws_scale);
      ("big_mass_scale", J.Num p.Params.big_mass_scale);
      ("branch_m_shift", J.int p.Params.branch_m_shift);
      ("branch_n_shift", J.int p.Params.branch_n_shift);
      ("chase_scale", J.Num p.Params.chase_scale);
    ]

let iteration_to_json it =
  J.Obj
    [
      ("iter", J.int it.iter);
      ("worst_error", J.Num it.worst_error);
      ("objective", J.Num it.objective);
      ("winner", J.int it.winner);
      ("errors", J.Obj (List.map (fun (k, e) -> (k, J.Num e)) it.errors));
      ("params", J.Obj (List.map (fun (k, p) -> (k, params_to_json p)) it.params));
    ]

let report_to_json r =
  J.Obj
    [
      ("converged", J.Bool r.converged);
      ("speculation", J.int r.speculation);
      ("iterations", J.List (List.map iteration_to_json r.iterations));
      ("final_params", J.Obj (List.map (fun (k, p) -> (k, params_to_json p)) r.final_params));
      ("attribution", J.Obj (List.map (fun (k, e) -> (k, J.Num e)) r.attribution));
    ]

(* Flatten the per-tier knob vector into span attributes ("tier.knob"). *)
let knob_attrs params =
  List.concat_map
    (fun (name, (p : Params.t)) ->
      [
        (name ^ ".inst_scale", Obs.Float p.Params.inst_scale);
        (name ^ ".i_ws_scale", Obs.Float p.Params.i_ws_scale);
        (name ^ ".d_ws_scale", Obs.Float p.Params.d_ws_scale);
        (name ^ ".big_mass_scale", Obs.Float p.Params.big_mass_scale);
        (name ^ ".branch_m_shift", Obs.Int p.Params.branch_m_shift);
        (name ^ ".chase_scale", Obs.Float p.Params.chase_scale);
      ])
    params

let rel_err actual synth = if actual = 0.0 then 0.0 else Float.abs (synth -. actual) /. actual

let counter_errors ~original ~synthetic ~orig_requests ~synth_requests =
  let per_req c n = float_of_int c.Counters.insts /. float_of_int (max 1 n) in
  [
    ("ipc", rel_err (Counters.ipc original) (Counters.ipc synthetic));
    ("insts", rel_err (per_req original orig_requests) (per_req synthetic synth_requests));
    ("branch", rel_err (Counters.branch_miss_rate original) (Counters.branch_miss_rate synthetic));
    ("l1i", rel_err (Counters.l1i_miss_rate original) (Counters.l1i_miss_rate synthetic));
    ("l1d", rel_err (Counters.l1d_miss_rate original) (Counters.l1d_miss_rate synthetic));
    ("l2", rel_err (Counters.l2_miss_rate original) (Counters.l2_miss_rate synthetic));
    ("llc", rel_err (Counters.llc_miss_rate original) (Counters.llc_miss_rate synthetic));
  ]

let clamp lo hi x = Float.max lo (Float.min hi x)

(* One feedback step for a tier's knobs: multiplicative correction toward
   the original's counter, damped for stability (the knob-to-counter
   relationships are roughly linear, §4.5). *)
let adjust (p : Params.t) ~(orig : Counters.t) ~(synth : Counters.t) ~orig_requests
    ~synth_requests =
  let ratio f =
    let a = f orig and s = f synth in
    if a <= 0.0 && s <= 0.0 then 1.0
    else if s <= 0.0 then 2.0 (* synthetic shows none of the events: push up *)
    else if a <= 0.0 then 0.5
    else Float.min 8.0 (Float.max 0.125 (a /. s))
  in
  let damp ?(k = 0.6) r = r ** k in
  let inst_ratio =
    let a = float_of_int orig.Counters.insts /. float_of_int (max 1 orig_requests) in
    let s = float_of_int synth.Counters.insts /. float_of_int (max 1 synth_requests) in
    if s <= 0.0 then 1.0 else a /. s
  in
  let i_ratio = ratio Counters.l1i_miss_rate in
  let cpi_ratio =
    let a = Counters.cpi orig and s = Counters.cpi synth in
    if a <= 0.0 || s <= 0.0 then 1.0 else Float.min 4.0 (Float.max 0.25 (a /. s))
  in
  let d_ratio = ratio Counters.l1d_miss_rate in
  let big_ratio =
    (* LLC traffic responds to how many accesses hit the large sets. *)
    let r2 = ratio Counters.l2_miss_rate and r3 = ratio Counters.llc_miss_rate in
    (r2 ** 0.4) *. (r3 ** 0.6)
  in
  let br_a = Counters.branch_miss_rate orig and br_s = Counters.branch_miss_rate synth in
  let m_shift =
    (* More mispredicts needed -> lower m (more volatile minority). *)
    if br_s > br_a *. 1.25 then p.Params.branch_m_shift + 1
    else if br_s < br_a /. 1.25 then p.Params.branch_m_shift - 1
    else p.Params.branch_m_shift
  in
  {
    p with
    Params.inst_scale = clamp 0.25 4.0 (p.Params.inst_scale *. damp inst_ratio);
    i_ws_scale = clamp 0.25 64.0 (p.Params.i_ws_scale *. damp ~k:0.35 i_ratio);
    d_ws_scale = clamp 0.25 16.0 (p.Params.d_ws_scale *. damp d_ratio);
    (* LLC misses alone do not pin this knob down (streaming misses can be
       traded between rep bursts and scattered accesses at equal counts but
       very different cost); the CPI residual breaks the tie. *)
    big_mass_scale =
      clamp 0.1 8.0
        (p.Params.big_mass_scale *. damp ~k:0.7 big_ratio *. damp ~k:0.4 cpi_ratio);
    branch_m_shift = max (-4) (min 4 m_shift);
    (* Pointer chasing trades MLP for serialisation: steer it with the CPI
       residual the other knobs do not explain (the paper sets it from
       measured MLP). *)
    chase_scale = clamp 0.0 4.0 (p.Params.chase_scale *. damp ~k:0.7 cpi_ratio);
  }

(* One evaluated knob assignment: the per-tier calibration measurements
   and the derived error terms. Candidates are evaluated on pool domains,
   so everything here is built inside the evaluation — no mutable state is
   shared between concurrent evaluations. [e_synth] is only populated on
   the whole-app path; the isolated path regenerates the winning spec
   once at the end. *)
type evaluation = {
  e_params : (string * Params.t) list;
  e_synth : Spec.t option;
  e_measured : (string * Measure.tier_result) list;
  e_errors : (string * float) list;
  e_worst : float;
  e_objective : float;
}

(* Objective for ranking candidates and keeping the best iterate: mean
   error with IPC counted twice (the headline metric); the convergence
   check stays on the worst single counter, per the paper's ">95%
   accuracy". Keys are "tier/metric", so match the "/ipc" suffix exactly —
   a bare suffix check on "ipc" would also double-weight any tier metric
   merely ending in those letters. *)
let objective_of errors =
  let sum, n =
    List.fold_left
      (fun (s, n) (key, e) ->
        let w = if String.ends_with ~suffix:"/ipc" key then 2.0 else 1.0 in
        (s +. (w *. e), n +. w))
      (0.0, 0.0) errors
  in
  sum /. Float.max 1.0 n

(* Tuning stops once the worst counter error is at most [target_error]. *)
let target_error = 0.05

(* K: the perturbed knob vectors evaluated alongside the damped adjustment
   each iteration. *)
let speculation = 2

let tune ?(max_iterations = 10) ?(seed = 1009) ?pool ~config ~load ~reference
    ~(profile : P.Tier_profile.app) () =
  Obs.Span.with_span ~name:"tune"
    ~attrs:[ ("speculation", Obs.Int speculation); ("seed", Obs.Int seed) ]
  @@ fun () ->
  let pool = match pool with Some p -> p | None -> Ditto_util.Pool.default () in
  (* Counter calibration only needs a short run. *)
  let tune_load = { load with Service.duration = Float.min load.Service.duration 0.4 } in
  let tiers = profile.P.Tier_profile.tiers in
  let ntiers = List.length tiers in
  (* Isolated calibration: a single-tier app's only tier is generated and
     measured alone through [Runner.measure_alone], with no service/DES
     phase, which tuning never reads. Multi-tier apps and stressor configs
     take the whole-app evaluation instead: a Runner run hosts every tier
     on one machine and measures them together, and that run is the only
     one that sees the cross-tier cache/TLB/page-cache contention being
     modelled. *)
  let isolated = ntiers = 1 && config.Runner.stressor = None in
  (* Calibration targets: for a single-tier app the reference's own
     measurement already is the one-hosted-tier run the isolated path
     replays, bit-identically; the whole-app path compares against it
     directly. *)
  let orig_targets = reference.Runner.measured in
  let orig_measured name = List.assoc name orig_targets in
  let synth_mcfg =
    lazy
      (let total =
         List.fold_left
           (fun a (tp : P.Tier_profile.t) ->
             a + tp.P.Tier_profile.skeleton.P.Skeleton.worker_threads)
           0 tiers
       in
       Runner.measure_config config ~qps:tune_load.Service.qps
         ~avg_workers:(max 1 (total / ntiers)))
  in
  let measure_synth_tier i (tp : P.Tier_profile.t) (p : Params.t) =
    let name = tp.P.Tier_profile.tier_name in
    let space =
      Layout.space ~tier_index:i ~heap_bytes:tp.P.Tier_profile.heap_bytes
        ~shared_bytes:tp.P.Tier_profile.shared_bytes
    in
    let downstream =
      match profile.P.Tier_profile.dag with
      | None -> []
      | Some dag -> Ditto_trace.Dag.downstreams dag name
    in
    let tier =
      Ditto_gen.Clone.synth_tier ~params:p ~seed:(seed + (17 * i)) ~profile:tp ~space
        ~downstream ()
    in
    List.hd
      (Runner.measure_alone config (Lazy.force synth_mcfg)
         ~page_cache_hint:profile.P.Tier_profile.page_cache_hint ~seed:config.Runner.seed
         [ (tier, space) ])
  in
  let errors_of measured =
    List.concat_map
      (fun (tp : P.Tier_profile.t) ->
        let name = tp.P.Tier_profile.tier_name in
        let o = orig_measured name and s = List.assoc name measured in
        counter_errors ~original:o.Measure.counters ~synthetic:s.Measure.counters
          ~orig_requests:o.Measure.requests_measured
          ~synth_requests:s.Measure.requests_measured
        |> List.map (fun (metric, e) -> (name ^ "/" ^ metric, e)))
      tiers
  in
  let evaluation_of ~synth ~measured params =
    let errors = errors_of measured in
    let worst = List.fold_left (fun acc (_, e) -> Float.max acc e) 0.0 errors in
    {
      e_params = params;
      e_synth = synth;
      e_measured = measured;
      e_errors = errors;
      e_worst = worst;
      e_objective = objective_of errors;
    }
  in
  let evaluate params =
    Obs.Span.with_span ~name:"tune.evaluate" @@ fun () ->
    if isolated then begin
      let measured =
        List.mapi
          (fun i (tp : P.Tier_profile.t) ->
            let name = tp.P.Tier_profile.tier_name in
            let p = Option.value ~default:Params.default (List.assoc_opt name params) in
            (name, measure_synth_tier i tp p))
          tiers
      in
      evaluation_of ~synth:None ~measured params
    end
    else begin
      let param_fn name =
        Option.value ~default:Params.default (List.assoc_opt name params)
      in
      let synth = Ditto_gen.Clone.synth_app ~params:param_fn ~seed profile in
      let out = Runner.run config ~load:tune_load synth in
      evaluation_of ~synth:(Some synth) ~measured:out.Runner.measured params
    end
  in
  let adjust_all (ev : evaluation) =
    List.map
      (fun (tp : P.Tier_profile.t) ->
        let name = tp.P.Tier_profile.tier_name in
        let p = Option.value ~default:Params.default (List.assoc_opt name ev.e_params) in
        let o = orig_measured name and s = List.assoc name ev.e_measured in
        ( name,
          adjust p ~orig:o.Measure.counters ~synth:s.Measure.counters
            ~orig_requests:o.Measure.requests_measured
            ~synth_requests:s.Measure.requests_measured ))
      tiers
  in
  (* Speculative candidates: multiplicative jitter around the damped
     adjustment, from an RNG keyed on (seed, iteration, candidate) so the
     candidate set — and hence the whole search trajectory — is identical
     whatever the pool size. *)
  let perturb ~iter ~k params =
    let rng = Ditto_util.Rng.create (seed lxor ((iter * 73856093) + ((k + 1) * 19349663))) in
    let jitter () = 2.0 ** (Ditto_util.Rng.float rng 0.5 -. 0.25) in
    List.map
      (fun (name, (p : Params.t)) ->
        let m_shift =
          if Ditto_util.Rng.int rng 4 = 0 then
            p.Params.branch_m_shift + (if Ditto_util.Rng.bool rng then 1 else -1)
          else p.Params.branch_m_shift
        in
        ( name,
          {
            p with
            Params.inst_scale = clamp 0.25 4.0 (p.Params.inst_scale *. jitter ());
            i_ws_scale = clamp 0.25 64.0 (p.Params.i_ws_scale *. jitter ());
            d_ws_scale = clamp 0.25 16.0 (p.Params.d_ws_scale *. jitter ());
            big_mass_scale = clamp 0.1 8.0 (p.Params.big_mass_scale *. jitter ());
            branch_m_shift = max (-4) (min 4 m_shift);
            chase_scale = clamp 0.0 4.0 (p.Params.chase_scale *. jitter ());
          } ))
      params
  in
  let initial =
    List.map (fun (tp : P.Tier_profile.t) -> (tp.P.Tier_profile.tier_name, Params.default)) tiers
  in
  let record_iteration ~iter ~winner (ev : evaluation) =
    {
      iter;
      worst_error = ev.e_worst;
      errors = ev.e_errors;
      objective = ev.e_objective;
      winner;
      params = ev.e_params;
    }
  in
  let current = ref (evaluate initial) in
  let iterations = ref [ record_iteration ~iter:1 ~winner:0 !current ] in
  let best = ref !current in
  let converged = ref (!current.e_worst <= target_error) in
  let iter = ref 1 in
  while (not !converged) && !iter < max_iterations do
    incr iter;
    Obs.Span.with_span ~name:"tune.iteration" ~attrs:[ ("iter", Obs.Int !iter) ]
    @@ fun () ->
    let base = adjust_all !current in
    let candidates = base :: List.init speculation (fun k -> perturb ~iter:!iter ~k base) in
    let evals = Ditto_util.Pool.map pool evaluate candidates in
    (* Keep the candidate with the lowest objective; ties break toward the
       damped adjustment (list head), so speculation only ever helps. *)
    let chosen, winner =
      let folded =
        List.fold_left
          (fun (acc, wi, i) ev ->
            if ev.e_objective < acc.e_objective then (ev, i, i + 1) else (acc, wi, i + 1))
          (List.hd evals, 0, 1) (List.tl evals)
      in
      let ev, wi, _ = folded in
      (ev, wi)
    in
    (if winner > 0 then Obs.Metrics.incr c_won);
    Obs.Metrics.add c_lost (List.length evals - 1 - if winner > 0 then 1 else 0);
    if Obs.enabled () then begin
      Obs.Span.add_attr "worst_error" (Obs.Float chosen.e_worst);
      Obs.Span.add_attr "objective" (Obs.Float chosen.e_objective);
      Obs.Span.add_attr "winner" (Obs.Int winner);
      List.iter (fun (k, a) -> Obs.Span.add_attr k a) (knob_attrs chosen.e_params)
    end;
    current := chosen;
    iterations := record_iteration ~iter:!iter ~winner chosen :: !iterations;
    if chosen.e_objective < !best.e_objective then best := chosen;
    if chosen.e_worst <= target_error then converged := true
  done;
  (* The response surface is not perfectly monotonic (set conflicts flip
     L1i behaviour at capacity edges); keep the best iterate, not the last. *)
  let final = if !best.e_objective <= !current.e_objective then !best else !current in
  let final_params = List.sort (fun (a, _) (b, _) -> compare a b) final.e_params in
  if Obs.enabled () then begin
    Obs.Span.add_attr "converged" (Obs.Bool !converged);
    Obs.Span.add_attr "iterations" (Obs.Int (List.length !iterations));
    Obs.Span.add_attr "final_worst_error" (Obs.Float final.e_worst)
  end;
  (* The isolated path never generated whole apps during the search; build
     the winning spec once from the final knob vector (generation is a
     pure function of (params, seed, profile), so this equals what the
     whole-app path would have carried through the search). *)
  let final_synth =
    match final.e_synth with
    | Some s -> s
    | None ->
        let param_fn name =
          Option.value ~default:Params.default (List.assoc_opt name final.e_params)
        in
        Ditto_gen.Clone.synth_app ~params:param_fn ~seed profile
  in
  ( final_synth,
    {
      iterations = List.rev !iterations;
      converged = !converged;
      final_params;
      speculation;
      attribution = attribution_of_errors final.e_errors;
    } )
