module Ts = Ditto_obs.Timeseries
module Table = Ditto_util.Table

type window_row = {
  w_index : int;
  w_start : float;
  w_actual_qps : float;
  w_clone_qps : float;
  w_actual_p95 : float;
  w_clone_p95 : float;
  w_err_pct : float;
}

type fault_row = {
  f_at : float;
  f_label : string;
  f_reconverged : bool;
  f_reconverge_seconds : float;
}

type t = {
  app : string;
  plan : string option;
  window_seconds : float;
  threshold_pct : float;
  rows : window_row list;
  worst_window_err_pct : float;
  mean_window_err_pct : float;
  fault_at : float option;
  reconverged : bool;
  reconverge_seconds : float;
  faults : fault_row list;
  tier_worst : (string * float) list;
}

(* Same relative-error convention as Scorecard: an actual of zero scores 0
   when the clone agrees and 100 when it does not, so crashed windows
   (both sides serving nothing) count as perfect agreement instead of a
   division by zero. *)
let err_pct ~actual ~synthetic =
  if actual = 0.0 then if synthetic = 0.0 then 0.0 else 100.0
  else 100.0 *. Float.abs (synthetic -. actual) /. actual

(* The reconvergence criterion: a window is compliant within this error. *)
let threshold_pct = 25.0

let of_timelines ~app ?plan ~actual ~clone () =
  let n = Ts.windows actual in
  if Ts.windows clone <> n || Ts.window_seconds clone <> Ts.window_seconds actual then
    invalid_arg "Timeline.of_timelines: window grids differ";
  let w = Ts.window_seconds actual in
  let rows =
    List.init n (fun i ->
        let a = Ts.row actual ~tier:Ts.client_tier i in
        let c = Ts.row clone ~tier:Ts.client_tier i in
        let a_qps = float_of_int a.Ts.r_completed /. w in
        let c_qps = float_of_int c.Ts.r_completed /. w in
        let qps_err = err_pct ~actual:a_qps ~synthetic:c_qps in
        let p95_err = err_pct ~actual:a.Ts.r_p95 ~synthetic:c.Ts.r_p95 in
        {
          w_index = i;
          w_start = float_of_int i *. w;
          w_actual_qps = a_qps;
          w_clone_qps = c_qps;
          w_actual_p95 = a.Ts.r_p95;
          w_clone_p95 = c.Ts.r_p95;
          w_err_pct = Float.max qps_err p95_err;
        })
  in
  let errs = List.map (fun r -> r.w_err_pct) rows in
  let worst = List.fold_left Float.max 0.0 errs in
  let mean =
    if errs = [] then 0.0 else List.fold_left ( +. ) 0.0 errs /. float_of_int (List.length errs)
  in
  let marks =
    (* "scale:" marks record autoscaler actuations — responses, not
       disturbances — so they never open a reconvergence measurement.
       Fault marks and "surge:" (flash-crowd onset) marks do. *)
    Ts.marks actual
    |> List.filter (fun (_, label) -> not (String.length label >= 6 && String.sub label 0 6 = "scale:"))
    |> List.map (fun (at, label) -> (at -. Ts.start_time actual, label))
    |> List.sort compare
  in
  let fault_at = match marks with [] -> None | (f, _) :: _ -> Some f in
  let arr = Array.of_list rows in
  let reconverge_from f =
    (* first window whose span contains (or follows) the fault *)
    let wf = max 0 (min (n - 1) (int_of_float (f /. w))) in
    let compliant i = arr.(i).w_err_pct <= threshold_pct in
    let rec find j =
      if j >= n then None
      else if compliant j && (j + 1 >= n || compliant (j + 1)) then Some j
      else find (j + 1)
    in
    (* reconvergence = fault time -> end of the first window opening a
       compliant streak; always >= the remainder of the fault window,
       hence strictly positive *)
    match find wf with
    | Some j -> (true, (float_of_int (j + 1) *. w) -. f)
    | None -> (false, (float_of_int n *. w) -. f)
  in
  (* One row per fault marker: multi-event plans (flaky-link's repeated
     down/up toggles) get a reconvergence time per event, not just for
     the first. *)
  let faults =
    List.map
      (fun (f, label) ->
        let ok, secs = reconverge_from f in
        { f_at = f; f_label = label; f_reconverged = ok; f_reconverge_seconds = secs })
      marks
  in
  let reconverged, reconverge_seconds =
    match faults with
    | [] -> (true, 0.0)
    | f :: _ -> (f.f_reconverged, f.f_reconverge_seconds)
  in
  let tier_worst =
    List.filter_map
      (fun tier ->
        if tier = Ts.client_tier then None
        else
          let worst = ref 0.0 in
          for i = 0 to n - 1 do
            let a = float_of_int (Ts.row actual ~tier i).Ts.r_completed /. w in
            let c = float_of_int (Ts.row clone ~tier i).Ts.r_completed /. w in
            worst := Float.max !worst (err_pct ~actual:a ~synthetic:c)
          done;
          Some (tier, !worst))
      (Ts.tiers actual)
  in
  {
    app;
    plan;
    window_seconds = w;
    threshold_pct;
    rows;
    worst_window_err_pct = worst;
    mean_window_err_pct = mean;
    fault_at;
    reconverged;
    reconverge_seconds;
    faults;
    tier_worst;
  }

let print t =
  let fault_windows =
    List.map (fun f -> int_of_float (f.f_at /. t.window_seconds)) t.faults
  in
  let rows =
    List.map
      (fun r ->
        [
          Printf.sprintf "%s%.0f ms"
            (if List.mem r.w_index fault_windows then "*" else "")
            (r.w_start *. 1e3);
          Table.fmt_float r.w_actual_qps;
          Table.fmt_float r.w_clone_qps;
          Printf.sprintf "%.3f" (r.w_actual_p95 *. 1e3);
          Printf.sprintf "%.3f" (r.w_clone_p95 *. 1e3);
          Table.fmt_pct r.w_err_pct;
        ])
      t.rows
  in
  let title =
    Printf.sprintf "transient fidelity: %s%s (%d windows x %.1f ms)" t.app
      (match t.plan with None -> "" | Some p -> " under " ^ p)
      (List.length t.rows) (t.window_seconds *. 1e3)
  in
  Table.print ~title
    ~header:[ "window"; "qps actual"; "qps clone"; "p95 actual (ms)"; "p95 clone (ms)"; "err" ]
    rows;
  List.iter
    (fun f ->
      Printf.printf "  fault %-18s at %.0f ms (window %d, flagged *): %s after %.0f ms\n"
        f.f_label (f.f_at *. 1e3)
        (int_of_float (f.f_at /. t.window_seconds))
        (if f.f_reconverged then "reconverged" else "NOT reconverged by run end")
        (f.f_reconverge_seconds *. 1e3))
    t.faults;
  Printf.printf "  worst window %.1f%%, mean %.1f%% (threshold %.0f%%)\n" t.worst_window_err_pct
    t.mean_window_err_pct t.threshold_pct;
  List.iter
    (fun (tier, e) -> Printf.printf "  tier %-14s worst window throughput err %.1f%%\n" tier e)
    t.tier_worst

let flat t =
  let plan = Option.value ~default:"steady" t.plan in
  let key m = Printf.sprintf "%s/%s/%s" t.app plan m in
  let per_fault =
    (* Multi-event plans gate each marker's reconvergence; a single-fault
       plan's marker is already the reconverge_seconds key above. *)
    if List.length t.faults <= 1 then []
    else
      List.mapi
        (fun i f ->
          (key (Printf.sprintf "fault%d/reconverge_seconds" i), f.f_reconverge_seconds))
        t.faults
  in
  [
    (key "worst_window_err_pct", t.worst_window_err_pct);
    (key "mean_window_err_pct", t.mean_window_err_pct);
    (key "reconverge_seconds", t.reconverge_seconds);
  ]
  @ per_fault
