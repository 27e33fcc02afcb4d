module J = Ditto_util.Jsonx

let client_tier = "client"

type segment_kind = Queue | Service | Backoff

let segment_name = function Queue -> "queue" | Service -> "service" | Backoff -> "backoff"

type outcome = Ok | Err | Shed | Timeout

let outcome_name = function
  | Ok -> "ok"
  | Err -> "err"
  | Shed -> "shed"
  | Timeout -> "timeout"

type span_kind = Client | Rpc | Server

type segment = { seg_kind : segment_kind; seg_start : float; seg_dur : float }

type span = {
  sp_id : int;
  sp_parent : int;
  sp_kind : span_kind;
  sp_tier : string;
  mutable sp_op : int;
  sp_arrive : float;
  sp_start : float;
  mutable sp_end : float;
  mutable sp_outcome : outcome;
  mutable sp_req_bytes : int;
  mutable sp_resp_bytes : int;
  mutable sp_segs : segment list;  (* reversed until finalize *)
  mutable sp_children : span list;  (* reversed until finalize *)
}

type t = {
  seed : int;
  sample_every : int;
  max_traces : int;
  max_per_type : int;
  spans : (int, span) Hashtbl.t;
  per_type : (int, int) Hashtbl.t;  (* request type -> kept traces *)
  mutable roots_rev : span list;  (* provisional, creation order *)
  mutable nroots : int;
  mutable dropped : int list;  (* root ids over a per-type quota *)
  mutable next_id : int;
  mutable seen : int;
  mutable finalized : bool;
}

let create ?(sample_every = 7) ?(max_traces = 512) ?(max_per_type = 64) ~seed () =
  if sample_every <= 0 then invalid_arg "Reqtrace.create: sample_every must be positive";
  if max_traces <= 0 then invalid_arg "Reqtrace.create: max_traces must be positive";
  {
    seed;
    sample_every;
    max_traces;
    max_per_type = max 1 max_per_type;
    spans = Hashtbl.create 256;
    per_type = Hashtbl.create 8;
    roots_rev = [];
    nroots = 0;
    dropped = [];
    next_id = 1;
    seen = 0;
    finalized = false;
  }

(* SplitMix64 finalizer: the sampling decision is a pure function of
   (seed, request sequence number), so it never touches — and is never
   perturbed by — any simulation RNG stream. *)
let mix64 z =
  let open Int64 in
  let z = mul (logxor z (shift_right_logical z 30)) 0xbf58476d1ce4e5b9L in
  let z = mul (logxor z (shift_right_logical z 27)) 0x94d049bb133111ebL in
  logxor z (shift_right_logical z 31)

let sampled_seq t seq =
  let h = mix64 (Int64.add (Int64.mul (Int64.of_int t.seed) 0x9e3779b97f4a7c15L) (Int64.of_int seq)) in
  Int64.rem (Int64.logand h 0x3fffffffffffffffL) (Int64.of_int t.sample_every) = 0L

let fresh t ~parent ~kind ~tier ~arrive ~start =
  let id = t.next_id in
  t.next_id <- id + 1;
  let sp =
    {
      sp_id = id;
      sp_parent = parent;
      sp_kind = kind;
      sp_tier = tier;
      sp_op = -1;
      sp_arrive = arrive;
      sp_start = start;
      sp_end = Float.nan;
      sp_outcome = Ok;
      sp_req_bytes = 0;
      sp_resp_bytes = 0;
      sp_segs = [];
      sp_children = [];
    }
  in
  Hashtbl.replace t.spans id sp;
  (match Hashtbl.find_opt t.spans parent with
  | Some p -> p.sp_children <- sp :: p.sp_children
  | None -> ());
  sp

let find t span = if span = 0 then None else Hashtbl.find_opt t.spans span

let client_start t ~at =
  t.seen <- t.seen + 1;
  if t.nroots >= t.max_traces then 0
  else if not (sampled_seq t t.seen) then 0
  else begin
    let sp = fresh t ~parent:0 ~kind:Client ~tier:client_tier ~arrive:at ~start:at in
    t.roots_rev <- sp :: t.roots_rev;
    t.nroots <- t.nroots + 1;
    sp.sp_id
  end

(* Per-request-type quota, enforced once the type is known (the entry
   tier's trace index, propagated to the root by [server_op]). *)
let quota_keep t (root : span) =
  let kept = Option.value ~default:0 (Hashtbl.find_opt t.per_type root.sp_op) in
  if kept >= t.max_per_type then begin
    t.dropped <- root.sp_id :: t.dropped;
    false
  end
  else begin
    Hashtbl.replace t.per_type root.sp_op (kept + 1);
    true
  end

let client_finish t ~span ~at outcome =
  match find t span with
  | None -> ()
  | Some sp ->
      sp.sp_end <- at;
      sp.sp_outcome <- outcome;
      ignore (quota_keep t sp)

let rpc_begin t ~parent ~target ~at =
  if parent = 0 || not (Hashtbl.mem t.spans parent) then 0
  else (fresh t ~parent ~kind:Rpc ~tier:target ~arrive:at ~start:at).sp_id

let rpc_end t ~span ~at outcome =
  match find t span with
  | None -> ()
  | Some sp ->
      sp.sp_end <- at;
      sp.sp_outcome <- outcome

let server_begin t ~parent ~tier ~bytes ~arrived ~at =
  if parent = 0 || not (Hashtbl.mem t.spans parent) then 0
  else begin
    let sp = fresh t ~parent ~kind:Server ~tier ~arrive:arrived ~start:at in
    sp.sp_req_bytes <- bytes;
    if at > arrived then
      sp.sp_segs <- { seg_kind = Queue; seg_start = arrived; seg_dur = at -. arrived } :: sp.sp_segs;
    sp.sp_id
  end

let server_op t ~span ~op =
  match find t span with
  | None -> ()
  | Some sp ->
      sp.sp_op <- op;
      (* Propagate the request type up to the root (the walk is the span
         depth — a handful of hops). *)
      let rec up id =
        match Hashtbl.find_opt t.spans id with
        | None -> ()
        | Some p -> if p.sp_kind = Client then (if p.sp_op < 0 then p.sp_op <- op) else up p.sp_parent
      in
      up sp.sp_parent

let server_end t ~span ?bytes ~at outcome =
  match find t span with
  | None -> ()
  | Some sp ->
      sp.sp_end <- at;
      sp.sp_outcome <- outcome;
      (match bytes with Some b -> sp.sp_resp_bytes <- b | None -> ())

let segment t ~span kind ~start ~dur =
  match find t span with
  | None -> ()
  | Some sp -> sp.sp_segs <- { seg_kind = kind; seg_start = start; seg_dur = dur } :: sp.sp_segs

let finalize t ~at =
  if not t.finalized then begin
    t.finalized <- true;
    Hashtbl.iter
      (fun _ sp ->
        if Float.is_nan sp.sp_end then begin
          sp.sp_end <- Float.max at sp.sp_start;
          sp.sp_outcome <- Timeout;
          if sp.sp_kind = Client then ignore (quota_keep t sp)
        end;
        sp.sp_segs <- List.rev sp.sp_segs;
        sp.sp_children <- List.rev sp.sp_children)
      t.spans
  end

let requests_seen t = t.seen

let kept_roots t =
  List.rev
    (List.filter (fun (sp : span) -> not (List.mem sp.sp_id t.dropped)) t.roots_rev)

let sampled t = List.length (kept_roots t)
let traces t = kept_roots t

(* --- Jaeger export ---------------------------------------------------- *)

(* Only client roots and server spans are exported; RPC spans (one per
   call attempt) are folded into the parent chain so the recovered DAG is
   the tier DAG. This emits exactly the subset Ditto_trace.Jaeger.of_string
   parses: hex ids, CHILD_OF references, operationName = tier, integer
   req/resp byte tags, non-negative durations. *)

let hex id = Printf.sprintf "%x" id

let rec jaeger_parent t (sp : span) =
  match Hashtbl.find_opt t.spans sp.sp_parent with
  | None -> None
  | Some p -> ( match p.sp_kind with Rpc -> jaeger_parent t p | Client | Server -> Some p)

let us s = if Float.is_nan s then 0.0 else Float.round (s *. 1e6)

let span_json t ~trace_id (sp : span) =
  let tag key value =
    J.Obj [ ("key", J.Str key); ("type", J.Str "int64"); ("value", J.int value) ]
  in
  let references =
    match jaeger_parent t sp with
    | None -> []
    | Some p ->
        [
          J.Obj
            [
              ("refType", J.Str "CHILD_OF");
              ("traceID", J.Str (hex trace_id));
              ("spanID", J.Str (hex p.sp_id));
            ];
        ]
  in
  J.Obj
    [
      ("traceID", J.Str (hex trace_id));
      ("spanID", J.Str (hex sp.sp_id));
      ("operationName", J.Str sp.sp_tier);
      ("references", J.List references);
      ("startTime", J.Num (us sp.sp_arrive));
      ("duration", J.Num (Float.max 0.0 (us sp.sp_end -. us sp.sp_arrive)));
      ("processID", J.Str "p0");
      ( "tags",
        J.List
          [
            tag "req_bytes" sp.sp_req_bytes;
            tag "resp_bytes" sp.sp_resp_bytes;
            J.Obj
              [
                ("key", J.Str "tier");
                ("type", J.Str "string");
                ("value", J.Str sp.sp_tier);
              ];
            J.Obj
              [
                ("key", J.Str "outcome");
                ("type", J.Str "string");
                ("value", J.Str (outcome_name sp.sp_outcome));
              ];
          ] );
    ]

let jaeger t =
  let trace_json (root : span) =
    let rec collect (sp : span) acc =
      let acc = match sp.sp_kind with Client | Server -> sp :: acc | Rpc -> acc in
      List.fold_left (fun acc c -> collect c acc) acc sp.sp_children
    in
    let spans = List.rev (collect root []) in
    J.Obj
      [
        ("traceID", J.Str (hex root.sp_id));
        ("spans", J.list (span_json t ~trace_id:root.sp_id) spans);
        ("processes", J.Obj [ ("p0", J.Obj [ ("serviceName", J.Str "ditto-reqtrace") ]) ]);
      ]
  in
  J.Obj [ ("data", J.list trace_json (kept_roots t)) ]

let write_jaeger path t = J.save path (jaeger t)
