module J = Ditto_util.Jsonx

let client_tier = "client"

type counter = Timeouts | Retries | Shed | Failures | Degraded

type row = {
  r_completed : int;
  r_p50 : float;
  r_p95 : float;
  r_p99 : float;
  r_timeouts : int;
  r_retries : int;
  r_shed : int;
  r_failures : int;
  r_degraded : int;
  r_cpu_seconds : float;
  r_queue_depth : int;
  r_replicas : int;
}

type t = {
  start : float;
  window : float;
  nwin : int;
  alpha : float;
  order : string list;
  tbl : (string, series) Hashtbl.t;
  mutable marks_rev : (float * string) list;
}

(* [owner] gives a series its collector's windows, so a recorder holding
   the series needs no lookup by tier name. *)
and series = {
  owner : t;
  completed : int array;
  (* latency sketches are allocated lazily: most tiers see traffic in
     every window, but a crashed tier's windows stay empty *)
  lat : Histogram.t option array;
  timeouts : int array;
  retries : int array;
  shed : int array;
  failures : int array;
  degraded : int array;
  cpu : float array;
  queue : int array;
  replicas : int array;
  mutable rate_basis : float;  (* insts per request; 0. until set *)
}

let create ?(windows = 24) ?(alpha = 0.01) ~start ~duration ~tiers () =
  if windows <= 0 then invalid_arg "Timeseries.create: windows must be positive";
  if duration <= 0.0 then invalid_arg "Timeseries.create: duration must be positive";
  let order = tiers @ [ client_tier ] in
  let t =
    {
      start;
      window = duration /. float_of_int windows;
      nwin = windows;
      alpha;
      order;
      tbl = Hashtbl.create (List.length order);
      marks_rev = [];
    }
  in
  List.iter
    (fun name ->
      Hashtbl.replace t.tbl name
        {
          owner = t;
          completed = Array.make windows 0;
          lat = Array.make windows None;
          timeouts = Array.make windows 0;
          retries = Array.make windows 0;
          shed = Array.make windows 0;
          failures = Array.make windows 0;
          degraded = Array.make windows 0;
          cpu = Array.make windows 0.0;
          queue = Array.make windows 0;
          replicas = Array.make windows 0;
          rate_basis = 0.0;
        })
    order;
  t

let start_time t = t.start
let window_seconds t = t.window
let windows t = t.nwin
let tiers t = t.order
let marks t = List.rev t.marks_rev

let series t ~tier =
  match Hashtbl.find_opt t.tbl tier with
  | Some s -> s
  | None -> invalid_arg ("Timeseries: unknown tier " ^ tier)

(* Samples arriving during the post-load drain (at >= start + duration)
   are dropped, not clamped: clamping would inflate the last window with
   an unbounded tail and skew its error against the other side. *)
let window_index t at =
  if at < t.start then None
  else
    let i = int_of_float ((at -. t.start) /. t.window) in
    if i >= t.nwin then None else Some i

let latency s ~at ~seconds =
  match window_index s.owner at with
  | None -> ()
  | Some i ->
      s.completed.(i) <- s.completed.(i) + 1;
      let h =
        match s.lat.(i) with
        | Some h -> h
        | None ->
            let h = Histogram.create ~alpha:s.owner.alpha () in
            s.lat.(i) <- Some h;
            h
      in
      Histogram.add h seconds

let count s ~at c =
  match window_index s.owner at with
  | None -> ()
  | Some i -> (
      match c with
      | Timeouts -> s.timeouts.(i) <- s.timeouts.(i) + 1
      | Retries -> s.retries.(i) <- s.retries.(i) + 1
      | Shed -> s.shed.(i) <- s.shed.(i) + 1
      | Failures -> s.failures.(i) <- s.failures.(i) + 1
      | Degraded -> s.degraded.(i) <- s.degraded.(i) + 1)

let cpu s ~at ~seconds =
  match window_index s.owner at with None -> () | Some i -> s.cpu.(i) <- s.cpu.(i) +. seconds

let queue s ~at ~depth =
  match window_index s.owner at with
  | None -> ()
  | Some i -> if depth > s.queue.(i) then s.queue.(i) <- depth

(* Replica counts are a step function sampled by the autoscaler at each
   scale event (and at arming time): record the max seen per window and
   carry the last value forward at read time so quiet windows still show
   the live count. *)
let replicas s ~at ~count =
  match window_index s.owner at with
  | None -> ()
  | Some i -> if count > s.replicas.(i) then s.replicas.(i) <- count

let mark t ~at ~label = t.marks_rev <- (at, label) :: t.marks_rev
let set_rate_basis t ~tier ~insts_per_req = (series t ~tier).rate_basis <- insts_per_req
let insts_per_req t ~tier = (series t ~tier).rate_basis

let row t ~tier i =
  if i < 0 || i >= t.nwin then invalid_arg "Timeseries.row: window out of range";
  let s = series t ~tier in
  let p q = match s.lat.(i) with None -> 0.0 | Some h -> Histogram.quantile h q in
  {
    r_completed = s.completed.(i);
    r_p50 = p 0.5;
    r_p95 = p 0.95;
    r_p99 = p 0.99;
    r_timeouts = s.timeouts.(i);
    r_retries = s.retries.(i);
    r_shed = s.shed.(i);
    r_failures = s.failures.(i);
    r_degraded = s.degraded.(i);
    r_cpu_seconds = s.cpu.(i);
    r_queue_depth = s.queue.(i);
    r_replicas =
      (let rec back j = if j < 0 then 0 else if s.replicas.(j) > 0 then s.replicas.(j) else back (j - 1) in
       back i);
  }

(* --- OpenMetrics text exposition ------------------------------------- *)

let escape_label v =
  let b = Buffer.create (String.length v) in
  String.iter
    (fun c ->
      match c with
      | '\\' -> Buffer.add_string b "\\\\"
      | '"' -> Buffer.add_string b "\\\""
      | '\n' -> Buffer.add_string b "\\n"
      | c -> Buffer.add_char b c)
    v;
  Buffer.contents b

let label_set kvs =
  "{"
  ^ String.concat ","
      (List.map (fun (k, v) -> Printf.sprintf "%s=\"%s\"" k (escape_label v)) kvs)
  ^ "}"

let openmetrics groups =
  let b = Buffer.create 4096 in
  let sample name labels value ts =
    Buffer.add_string b
      (Printf.sprintf "%s%s %.9g %.6f\n" name (label_set labels) value ts)
  in
  (* one family at a time: OpenMetrics requires all samples of a metric
     family to be contiguous *)
  let family name typ help per_window =
    Buffer.add_string b (Printf.sprintf "# TYPE %s %s\n" name typ);
    Buffer.add_string b (Printf.sprintf "# HELP %s %s\n" name help);
    List.iter
      (fun (labels, t) ->
        List.iter
          (fun tier ->
            for i = 0 to t.nwin - 1 do
              let ts = t.start +. (float_of_int (i + 1) *. t.window) in
              per_window ~name ~labels:(("tier", tier) :: labels) ~t ~tier ~i ~ts
                ~emit:(fun ?(extra = []) v -> sample name (("tier", tier) :: labels @ extra) v ts)
            done)
          t.order)
      groups
  in
  let simple (f : t:t -> r:row -> emit:(?extra:(string * string) list -> float -> unit) -> unit)
      ~name:_ ~labels:_ ~t ~tier ~i ~ts:_ ~emit =
    let r = row t ~tier i in
    f ~t ~r ~emit
  in
  family "ditto_window_completed" "gauge" "requests completed in the window"
    (simple (fun ~t:_ ~r ~emit -> emit (float_of_int r.r_completed)));
  family "ditto_throughput_qps" "gauge" "windowed throughput, requests per simulated second"
    (simple (fun ~t ~r ~emit -> emit (float_of_int r.r_completed /. t.window)));
  family "ditto_latency_seconds" "gauge" "windowed latency quantiles (log-bucketed sketch)"
    (simple (fun ~t:_ ~r ~emit ->
         emit ~extra:[ ("quantile", "0.5") ] r.r_p50;
         emit ~extra:[ ("quantile", "0.95") ] r.r_p95;
         emit ~extra:[ ("quantile", "0.99") ] r.r_p99));
  family "ditto_queue_depth" "gauge" "max accept-queue depth sampled in the window"
    (simple (fun ~t:_ ~r ~emit -> emit (float_of_int r.r_queue_depth)));
  family "ditto_faults" "gauge" "fault counters in the window, by kind"
    (simple (fun ~t:_ ~r ~emit ->
         emit ~extra:[ ("kind", "timeout") ] (float_of_int r.r_timeouts);
         emit ~extra:[ ("kind", "retry") ] (float_of_int r.r_retries);
         emit ~extra:[ ("kind", "shed") ] (float_of_int r.r_shed);
         emit ~extra:[ ("kind", "failure") ] (float_of_int r.r_failures);
         emit ~extra:[ ("kind", "degraded") ] (float_of_int r.r_degraded)));
  family "ditto_cpu_seconds" "gauge" "on-CPU seconds accumulated in the window"
    (simple (fun ~t:_ ~r ~emit -> emit r.r_cpu_seconds));
  (* replica counts only exist under an autoscaling policy; suppress the
     family entirely otherwise so pre-surge exports stay byte-identical *)
  (if List.exists
       (fun (_, t) ->
         List.exists (fun tier -> Array.exists (fun c -> c > 0) (series t ~tier).replicas) t.order)
       groups
   then
     family "ditto_replicas" "gauge" "live replica count (autoscaler, carried forward per window)"
       (simple (fun ~t:_ ~r ~emit -> emit (float_of_int r.r_replicas))));
  family "ditto_insts_per_sec" "gauge"
    "rate-form instruction counter: measured insts/request x windowed throughput"
    (fun ~name:_ ~labels:_ ~t ~tier ~i ~ts:_ ~emit ->
      let basis = insts_per_req t ~tier in
      if basis > 0.0 then
        let r = row t ~tier i in
        emit (basis *. float_of_int r.r_completed /. t.window));
  Buffer.add_string b "# EOF\n";
  Buffer.contents b

let to_openmetrics ?(labels = []) t = openmetrics [ (labels, t) ]

(* --- Chrome trace counter events ------------------------------------- *)

let chrome_events ?(pid = 100) ~process_name t =
  let meta name tid args =
    J.Obj
      [
        ("name", J.Str name);
        ("ph", J.Str "M");
        ("pid", J.int pid);
        ("tid", J.int tid);
        ("args", J.Obj args);
      ]
  in
  let counter ~tid ~ts name v =
    J.Obj
      [
        ("name", J.Str name);
        ("cat", J.Str "ditto");
        ("ph", J.Str "C");
        ("pid", J.int pid);
        ("tid", J.int tid);
        ("ts", J.Num ts);
        ("args", J.Obj [ ("value", J.Num v) ]);
      ]
  in
  let header =
    meta "process_name" 0 [ ("name", J.Str process_name) ]
    :: List.mapi (fun idx tier -> meta "thread_name" (idx + 1) [ ("name", J.Str tier) ]) t.order
  in
  let counters =
    List.concat (List.mapi
      (fun idx tier ->
        let tid = idx + 1 in
        let basis = insts_per_req t ~tier in
        List.concat
          (List.init t.nwin (fun i ->
               let r = row t ~tier i in
               let ts = (t.start +. (float_of_int i *. t.window)) *. 1e6 in
               let faults = r.r_timeouts + r.r_retries + r.r_shed + r.r_failures in
               let qps = float_of_int r.r_completed /. t.window in
               counter ~tid ~ts (tier ^ " qps") qps
               :: counter ~tid ~ts (tier ^ " p95 ms") (r.r_p95 *. 1e3)
               :: counter ~tid ~ts (tier ^ " queue") (float_of_int r.r_queue_depth)
               :: counter ~tid ~ts (tier ^ " faults") (float_of_int faults)
               ::
               (if basis > 0.0 then
                  [ counter ~tid ~ts (tier ^ " Minsts/s") (basis *. qps /. 1e6) ]
                else [])))
      )
      t.order)
  in
  let markers =
    List.map
      (fun (at, label) ->
        J.Obj
          [
            ("name", J.Str label);
            ("cat", J.Str "ditto");
            ("ph", J.Str "i");
            ("s", J.Str "p");
            ("pid", J.int pid);
            ("tid", J.int 0);
            ("ts", J.Num (at *. 1e6));
          ])
      (marks t)
  in
  header @ counters @ markers
