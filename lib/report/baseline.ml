module J = Ditto_util.Jsonx

type t = { tolerance_pp : (string * float) list; metrics : (string * float) list }
type regression = { key : string; current : float; baseline : float; allowed_pp : float }

let default_tolerances =
  [
    ("default", 2.0);
    (* counter axes: LLC and branch are the paper's own noisiest counters
       (§6.2.1 reports 12.1% and 9.9% there) *)
    ("llc", 4.0);
    ("LLC", 4.0);
    ("branch", 3.0);
    ("Branch", 3.0);
    (* service-level rows move with queueing, so the tail gets more slack *)
    ("throughput", 3.0);
    ("lat_avg", 10.0);
    ("lat_p95", 12.0);
    ("lat_p99", 15.0);
    ("latency avg", 10.0);
    ("latency p95", 12.0);
    ("latency p99", 15.0);
    (* chaos keys: failure-mode fidelity moves with every queueing shift,
       so the gate is wider than the steady-state rows *)
    ("error_rate_pp", 4.0);
    ("p99_err_pct", 20.0);
    ("throughput_err_pct", 10.0);
    (* timeline keys: single-window errors are noisier than whole-run
       aggregates (a 25 ms window holds ~1/24 of the samples), and
       reconvergence moves in whole windows — its tolerance is absolute
       seconds, sized to ~10 windows of a default 0.6 s run *)
    ("worst_window_err_pct", 30.0);
    ("mean_window_err_pct", 10.0);
    ("reconverge_seconds", 0.25);
    (* critpath keys: per-cell critical-path shares ride on a few hundred
       sampled requests, so a single-cell share swing is noisier than the
       whole-run counter rows; the worst-cell summary gets a bit more
       slack than the mean *)
    ("share_err_pp", 3.0);
    ("worst_share_err_pp", 4.0);
    ("mean_share_err_pp", 2.0);
    (* surge keys: overload behaviour rides on when queues tip over, so a
       one-window shift moves the shed-rate and trajectory cells by whole
       windows; onset error is absolute seconds (~4 windows of a default
       0.6 s run) *)
    ("shed_fraction_err_pp", 5.0);
    ("worst_shed_window_err_pp", 15.0);
    ("replica_traj_err_pp", 20.0);
    ("saturation_onset_err_s", 0.1);
    (* wall-clock budgets (absolute seconds of slack over the pinned
       value, not percentage points): per-experiment stage budget, with a
       wider gate on the whole-bench total since its noise is the sum of
       the stages' *)
    ("wall_seconds", 15.0);
    ("experiments/total/wall_seconds", 45.0);
    (* synth-scale stages run for minutes, not seconds, so the 15s default
       would gate them at ~2% — tighter than run-to-run engine variance.
       Give them ~15% of their pinned walls instead. *)
    ("experiments/synth100/wall_seconds", 120.0);
    ("experiments/synth500/wall_seconds", 60.0);
    ("experiments/synth1000/wall_seconds", 120.0);
  ]

let last_component key =
  match String.rindex_opt key '/' with
  | None -> key
  | Some i -> String.sub key (i + 1) (String.length key - i - 1)

let tolerance_for t key =
  match List.assoc_opt key t.tolerance_pp with
  | Some v -> v
  | None -> (
      match List.assoc_opt (last_component key) t.tolerance_pp with
      | Some v -> v
      | None -> Option.value ~default:2.0 (List.assoc_opt "default" t.tolerance_pp))

let obj_entries = function J.Obj kvs -> kvs | _ -> []

let flatten json =
  let errors =
    obj_entries (J.member "mean_error_pct" json)
    |> List.map (fun (axis, v) -> ("mean_error_pct/" ^ axis, J.to_float v))
  in
  let scorecards =
    obj_entries (J.member "scorecards" json)
    |> List.concat_map (fun (app, card) ->
           match J.member "rows" card with
           | J.List rows ->
               List.map
                 (fun row ->
                   ( Printf.sprintf "scorecards/%s/%s/%s" app
                       (J.to_str (J.member "tier" row))
                       (J.to_str (J.member "metric" row)),
                     J.to_float (J.member "err_pct" row) ))
                 rows
           | _ -> [])
  in
  let gates =
    List.concat_map
      (fun g ->
        let section = Gate.name g in
        obj_entries (J.member section json)
        |> List.map (fun (key, v) -> (section ^ "/" ^ key, J.to_float v)))
      Gate.all
  in
  (* Wall-clock budgets: per-experiment stage seconds plus the bench
     total, so `bench --check` gates performance regressions alongside
     fidelity ones. The keys end in "wall_seconds" to pick up the
     absolute-seconds tolerance entries. *)
  let wall =
    let per_experiment =
      match J.member "experiments" json with
      | J.List rows ->
          List.map
            (fun row ->
              ( Printf.sprintf "experiments/%s/wall_seconds" (J.to_str (J.member "name" row)),
                J.to_float (J.member "seconds" row) ))
            rows
      | _ -> []
    in
    match J.member "total_seconds" json with
    | J.Num s -> per_experiment @ [ ("experiments/total/wall_seconds", s) ]
    | _ -> per_experiment
  in
  errors @ scorecards @ gates @ wall

let make ?(tolerance_pp = default_tolerances) metrics = { tolerance_pp; metrics }

let merge ~into:base current =
  (* Tolerances the baseline pinned win, but metric families introduced
     after the baseline was written (e.g. the chaos keys) get their
     code-default slack instead of silently falling back to "default". *)
  let tolerance_pp =
    base.tolerance_pp
    @ List.filter (fun (k, _) -> not (List.mem_assoc k base.tolerance_pp)) default_tolerances
  in
  (* Hash-index both sides: with per-tier scorecard rows from synth-scale
     graphs the metric list runs to thousands of keys, and the pairwise
     assoc scans go quadratic. *)
  let current_tbl = Hashtbl.create 256 in
  List.iter (fun (k, v) -> Hashtbl.replace current_tbl k v) current;
  let base_keys = Hashtbl.create 256 in
  List.iter (fun (k, _) -> Hashtbl.replace base_keys k ()) base.metrics;
  let metrics =
    List.map
      (fun (k, v) ->
        (k, match Hashtbl.find_opt current_tbl k with Some v' -> v' | None -> v))
      base.metrics
    @ List.filter (fun (k, _) -> not (Hashtbl.mem base_keys k)) current
  in
  { tolerance_pp; metrics }

let diff t current =
  let current_tbl = Hashtbl.create 256 in
  List.iter (fun (k, v) -> Hashtbl.replace current_tbl k v) current;
  let regressions, checked =
    List.fold_left
      (fun (regs, n) (key, base) ->
        match Hashtbl.find_opt current_tbl key with
        | None -> (regs, n)
        | Some cur ->
            let allowed_pp = tolerance_for t key in
            if cur > base +. allowed_pp then
              ({ key; current = cur; baseline = base; allowed_pp } :: regs, n + 1)
            else (regs, n + 1))
      ([], 0) t.metrics
  in
  (List.sort (fun a b -> compare a.key b.key) regressions, checked)

let num_obj kvs = J.Obj (List.map (fun (k, v) -> (k, J.Num v)) kvs)

let to_json t =
  J.Obj
    [
      ("schema_version", J.int 1);
      ("tolerance_pp", num_obj t.tolerance_pp);
      ("metrics", num_obj t.metrics);
    ]

let of_json json =
  {
    tolerance_pp =
      obj_entries (J.member "tolerance_pp" json) |> List.map (fun (k, v) -> (k, J.to_float v));
    metrics =
      obj_entries (J.member "metrics" json) |> List.map (fun (k, v) -> (k, J.to_float v));
  }

let load path = of_json (J.load path)

let save ~path t = J.save path (to_json t)
