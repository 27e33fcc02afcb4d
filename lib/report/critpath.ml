module Rq = Ditto_obs.Reqtrace
module Stats = Ditto_util.Stats
module Table = Ditto_util.Table

let eps = 1e-12

(* --- Critical-path extraction ----------------------------------------- *)

(* An activity is anything a span's elapsed time can be attributed to: one
   of its own typed segments, or a child RPC interval (send to
   reply/timeout). The index keeps tie-breaking deterministic: equal
   (end, start) resolves toward the later-recorded activity. *)
type activity = Seg of Rq.segment | Child of Rq.span

let interval = function
  | Seg s -> (s.Rq.seg_start, s.Rq.seg_start +. s.Rq.seg_dur)
  | Child c -> (c.Rq.sp_start, c.Rq.sp_end)

let rec walk (sp : Rq.span) add =
  let acts =
    List.mapi (fun i s -> (i, Seg s)) sp.Rq.sp_segs
    @ List.mapi
        (fun i c -> (10000 + i, Child c))
        (List.filter (fun (c : Rq.span) -> c.Rq.sp_kind = Rq.Rpc) sp.Rq.sp_children)
  in
  let floor = sp.Rq.sp_arrive in
  let cursor = ref sp.Rq.sp_end in
  let remaining = ref acts in
  let running = ref true in
  while !running do
    (* Latest-ending activity at/before the cursor; ties break toward the
       later start, then the higher index. *)
    let best =
      List.fold_left
        (fun best (idx, act) ->
          let a_start, a_end = interval act in
          if a_end > !cursor +. eps then best
          else
            let key = (a_end, a_start, idx) in
            match best with
            | Some (_, _, _, bkey) when bkey >= key -> best
            | _ -> Some (idx, act, (a_start, a_end), key))
        None !remaining
    in
    match best with
    | None ->
        if !cursor -. floor > eps then add sp.Rq.sp_tier "other" (!cursor -. floor);
        running := false
    | Some (idx, act, (a_start, a_end), _) ->
        remaining := List.filter (fun (i, _) -> i <> idx) !remaining;
        if !cursor -. a_end > eps then add sp.Rq.sp_tier "other" (!cursor -. a_end);
        (match act with
        | Seg s -> add sp.Rq.sp_tier (Rq.segment_name s.Rq.seg_kind) s.Rq.seg_dur
        | Child c ->
            let rpc_dur = Float.max 0.0 (c.Rq.sp_end -. c.Rq.sp_start) in
            let server =
              List.find_opt (fun (ch : Rq.span) -> ch.Rq.sp_kind = Rq.Server) c.Rq.sp_children
            in
            (match server with
            | Some s ->
                (* Network + serialisation: the caller's wait minus the
                   callee's server-side time; the rest recurses. *)
                let sdur = Float.max 0.0 (s.Rq.sp_end -. s.Rq.sp_arrive) in
                let net = Float.max 0.0 (rpc_dur -. sdur) in
                if net > eps then add sp.Rq.sp_tier ("rpc:" ^ c.Rq.sp_tier) net;
                walk s add
            | None ->
                (* The callee never began handling (crash, drop): the whole
                   wait is the caller's RPC time. *)
                add sp.Rq.sp_tier ("rpc:" ^ c.Rq.sp_tier) rpc_dur));
        cursor := Float.max floor a_start;
        if !cursor -. floor <= eps then running := false
  done

let contributions root =
  let tbl : (string * string, float) Hashtbl.t = Hashtbl.create 16 in
  let add tier segment seconds =
    if seconds > 0.0 then
      let key = (tier, segment) in
      Hashtbl.replace tbl key (seconds +. Option.value ~default:0.0 (Hashtbl.find_opt tbl key))
  in
  walk root add;
  Hashtbl.fold (fun (tier, segment) v acc -> (tier, segment, v) :: acc) tbl []
  |> List.sort (fun (t1, s1, v1) (t2, s2, v2) -> compare (v2, t1, s1) (v1, t2, s2))

(* --- Contribution tables ---------------------------------------------- *)

type cell = {
  c_tier : string;
  c_segment : string;
  c_mean : float;
  c_p95 : float;
  c_p99 : float;
  c_share_pct : float;
}

type table = { t_samples : int; t_mean_e2e : float; t_cells : cell list }

let of_traces roots =
  let n = List.length roots in
  if n = 0 then { t_samples = 0; t_mean_e2e = 0.0; t_cells = [] }
  else begin
    let per_trace = List.map (fun r -> (r, contributions r)) roots in
    let keys = ref [] in
    List.iter
      (fun (_, cs) ->
        List.iter (fun (tier, seg, _) -> if not (List.mem (tier, seg) !keys) then keys := (tier, seg) :: !keys) cs)
      per_trace;
    let keys = List.sort compare !keys in
    let e2e =
      List.fold_left (fun a (r : Rq.span) -> a +. Float.max 0.0 (r.Rq.sp_end -. r.Rq.sp_start)) 0.0 roots
      /. float_of_int n
    in
    let cells =
      List.map
        (fun (tier, seg) ->
          let st = Stats.create () in
          List.iter
            (fun (_, cs) ->
              let v =
                List.fold_left
                  (fun acc (t, s, x) -> if t = tier && s = seg then acc +. x else acc)
                  0.0 cs
              in
              Stats.add st v)
            per_trace;
          let s = Stats.summary st in
          {
            c_tier = tier;
            c_segment = seg;
            c_mean = s.Stats.mean;
            c_p95 = s.Stats.p95;
            c_p99 = s.Stats.p99;
            c_share_pct = (if e2e > 0.0 then 100.0 *. s.Stats.mean /. e2e else 0.0);
          })
        keys
      |> List.sort (fun a b -> compare (b.c_share_pct, a.c_tier, a.c_segment) (a.c_share_pct, b.c_tier, b.c_segment))
    in
    { t_samples = n; t_mean_e2e = e2e; t_cells = cells }
  end

(* --- Actual-vs-clone divergence --------------------------------------- *)

type div_row = {
  d_tier : string;
  d_segment : string;
  d_actual_mean : float;
  d_clone_mean : float;
  d_actual_share_pct : float;
  d_clone_share_pct : float;
  d_err_pp : float;
}

type divergence = {
  v_app : string;
  v_plan : string option;
  v_actual : table;
  v_clone : table;
  v_rows : div_row list;
}

let divergence ~app ?plan ~actual ~clone () =
  let cell_tbl (t : table) =
    let tbl = Hashtbl.create 32 in
    List.iter (fun c -> Hashtbl.replace tbl (c.c_tier, c.c_segment) c) t.t_cells;
    tbl
  in
  let a_tbl = cell_tbl actual and c_tbl = cell_tbl clone in
  let keys =
    List.sort_uniq compare
      (List.map (fun c -> (c.c_tier, c.c_segment)) (actual.t_cells @ clone.t_cells))
  in
  let rows =
    List.map
      (fun (tier, seg) ->
        let mean tbl = match Hashtbl.find_opt tbl (tier, seg) with Some c -> c.c_mean | None -> 0.0 in
        let share tbl =
          match Hashtbl.find_opt tbl (tier, seg) with Some c -> c.c_share_pct | None -> 0.0
        in
        let a_share = share a_tbl and c_share = share c_tbl in
        {
          d_tier = tier;
          d_segment = seg;
          d_actual_mean = mean a_tbl;
          d_clone_mean = mean c_tbl;
          d_actual_share_pct = a_share;
          d_clone_share_pct = c_share;
          d_err_pp = c_share -. a_share;
        })
      keys
    |> List.sort (fun a b ->
           compare
             (Float.abs b.d_err_pp, a.d_tier, a.d_segment)
             (Float.abs a.d_err_pp, b.d_tier, b.d_segment))
  in
  { v_app = app; v_plan = plan; v_actual = actual; v_clone = clone; v_rows = rows }

let of_comparison ~app ?plan (c : Ditto_core.Pipeline.comparison) =
  let traces side (r : Ditto_app.Service.result) =
    match r.Ditto_app.Service.reqtrace with
    | Some rq -> Rq.traces rq
    | None ->
        invalid_arg
          (Printf.sprintf
             "Critpath.of_comparison: the %s run carried no Reqtrace collector (validate \
              with a runner config that sets reqtrace)"
             side)
  in
  let actual = of_traces (traces "actual" c.Ditto_core.Pipeline.actual_service) in
  let clone = of_traces (traces "clone" c.Ditto_core.Pipeline.synthetic_service) in
  divergence ~app ?plan ~actual ~clone ()

let worst d = match d.v_rows with [] -> None | r :: _ -> Some r

let print d =
  let ms v = Printf.sprintf "%.3f" (v *. 1e3) in
  let rows =
    List.map
      (fun r ->
        [
          r.d_tier;
          r.d_segment;
          ms r.d_actual_mean;
          ms r.d_clone_mean;
          Printf.sprintf "%.1f%%" r.d_actual_share_pct;
          Printf.sprintf "%.1f%%" r.d_clone_share_pct;
          Printf.sprintf "%+.1f" r.d_err_pp;
        ])
      d.v_rows
  in
  let title =
    Printf.sprintf "critical-path divergence: %s%s (%d actual / %d clone traces, mean e2e %.2f / %.2f ms)"
      d.v_app
      (match d.v_plan with None -> "" | Some p -> " under " ^ p)
      d.v_actual.t_samples d.v_clone.t_samples (d.v_actual.t_mean_e2e *. 1e3)
      (d.v_clone.t_mean_e2e *. 1e3)
  in
  Table.print ~title
    ~header:[ "tier"; "segment"; "actual (ms)"; "clone (ms)"; "actual share"; "clone share"; "err pp" ]
    rows;
  match worst d with
  | None -> Printf.printf "  CRITPATH worst=none err_pp=0.0 (no sampled traces)\n"
  | Some r ->
      Printf.printf "  CRITPATH worst=%s/%s err_pp=%+.2f (%s %s: actual %.1f%% vs clone %.1f%% of e2e)\n"
        r.d_tier r.d_segment r.d_err_pp r.d_tier r.d_segment r.d_actual_share_pct
        r.d_clone_share_pct

let flat d =
  let plan = Option.value ~default:"steady" d.v_plan in
  let key rest = Printf.sprintf "%s/%s/%s" d.v_app plan rest in
  let abs_rows = List.map (fun r -> (r, Float.abs r.d_err_pp)) d.v_rows in
  let worst_pp = List.fold_left (fun a (_, e) -> Float.max a e) 0.0 abs_rows in
  let mean_pp =
    match abs_rows with
    | [] -> 0.0
    | _ ->
        List.fold_left (fun a (_, e) -> a +. e) 0.0 abs_rows
        /. float_of_int (List.length abs_rows)
  in
  List.map
    (fun (r, e) -> (key (Printf.sprintf "%s/%s/share_err_pp" r.d_tier r.d_segment), e))
    abs_rows
  @ [ (key "worst_share_err_pp", worst_pp); (key "mean_share_err_pp", mean_pp) ]
