(* Self-tracing and telemetry for the cloning pipeline itself.

   The design mirrors what the pipeline ingests: Jaeger-style spans with
   parent/child references. Recording is per-domain — each domain owns a
   ring buffer reached through Domain.DLS, so the hot path never takes a
   lock or touches another domain's cache lines; buffers are merged (and
   sorted by start time) only at export. When tracing is disabled every
   entry point reduces to a single Atomic.get on the global flag. *)

module J = Ditto_util.Jsonx

(* {1 Global switch} *)

let enabled_flag = Atomic.make false
let enabled () = Atomic.get enabled_flag

(* {1 Attributes} *)

type attr = Str of string | Float of float | Int of int | Bool of bool

let attr_to_json = function
  | Str s -> J.Str s
  | Float f -> J.Num f
  | Int i -> J.int i
  | Bool b -> J.Bool b

(* {1 Spans and per-domain ring buffers} *)

type completed = {
  trace_id : int;
  span_id : int;
  parent_id : int option;
  name : string;
  domain : int;
  start_ns : int64;
  dur_ns : int64;
  attrs : (string * attr) list;
}

(* An open span: lives on its domain's stack until [with_span] returns. *)
type frame = {
  f_trace : int;
  f_span : int;
  f_parent : int option;
  f_name : string;
  f_start : int64;
  mutable f_attrs : (string * attr) list; (* reversed accumulation *)
}

type buffer = {
  dom : int; (* registration index, used as span-id namespace and tid *)
  mutable ring : completed array;
  mutable widx : int; (* total spans ever written; ring slot is widx mod cap *)
  mutable stack : frame list;
  mutable next_span : int;
  mutable next_trace : int;
}

let dummy_completed =
  {
    trace_id = 0;
    span_id = 0;
    parent_id = None;
    name = "";
    domain = 0;
    start_ns = 0L;
    dur_ns = 0L;
    attrs = [];
  }

let default_capacity = 65536
let capacity = Atomic.make default_capacity
let set_capacity n = Atomic.set capacity (max 1 n)

(* Registered once per domain, on that domain's first recording; the
   mutex guards registration and export only, never span recording. *)
let registry : buffer list ref = ref []
let registry_mutex = Mutex.create ()

let buffer_key =
  Domain.DLS.new_key (fun () ->
      Mutex.lock registry_mutex;
      let b =
        {
          dom = List.length !registry;
          ring = Array.make (Atomic.get capacity) dummy_completed;
          widx = 0;
          stack = [];
          next_span = 1;
          next_trace = 1;
        }
      in
      registry := !registry @ [ b ];
      Mutex.unlock registry_mutex;
      b)

let buffer () = Domain.DLS.get buffer_key

let buffers () =
  Mutex.lock registry_mutex;
  let bs = !registry in
  Mutex.unlock registry_mutex;
  bs

let dropped_spans () =
  List.fold_left (fun acc b -> acc + max 0 (b.widx - Array.length b.ring)) 0 (buffers ())

let record b c =
  let cap = Array.length b.ring in
  b.ring.(b.widx mod cap) <- c;
  b.widx <- b.widx + 1

(* Ids carry the owning domain in the high bits so allocation is
   contention-free yet globally unique. *)
let id_of b local = (b.dom lsl 32) lor local

type context = { ctx_trace : int; ctx_span : int; ctx_name : string }

let current () =
  if not (enabled ()) then None
  else
    match (buffer ()).stack with
    | [] -> None
    | fr :: _ -> Some { ctx_trace = fr.f_trace; ctx_span = fr.f_span; ctx_name = fr.f_name }

let now_ns () = Monotonic_clock.now ()

module Span = struct
  let with_span ?parent ?(attrs = []) ~name f =
    if not (enabled ()) then f ()
    else begin
      let b = buffer () in
      let trace, parent_id =
        match parent with
        | Some c -> (c.ctx_trace, Some c.ctx_span)
        | None -> (
            match b.stack with
            | fr :: _ -> (fr.f_trace, Some fr.f_span)
            | [] ->
                let t = id_of b b.next_trace in
                b.next_trace <- b.next_trace + 1;
                (t, None))
      in
      let span_id = id_of b b.next_span in
      b.next_span <- b.next_span + 1;
      let fr =
        {
          f_trace = trace;
          f_span = span_id;
          f_parent = parent_id;
          f_name = name;
          f_start = now_ns ();
          f_attrs = List.rev attrs;
        }
      in
      b.stack <- fr :: b.stack;
      let finish () =
        let stop = now_ns () in
        (match b.stack with
        | top :: rest when top == fr -> b.stack <- rest
        | stack -> b.stack <- List.filter (fun f' -> not (f' == fr)) stack);
        record b
          {
            trace_id = fr.f_trace;
            span_id = fr.f_span;
            parent_id = fr.f_parent;
            name = fr.f_name;
            domain = b.dom;
            start_ns = fr.f_start;
            dur_ns = Int64.max 0L (Int64.sub stop fr.f_start);
            attrs = List.rev fr.f_attrs;
          }
      in
      match f () with
      | v ->
          finish ();
          v
      | exception e ->
          let bt = Printexc.get_raw_backtrace () in
          finish ();
          Printexc.raise_with_backtrace e bt
    end

  let add_attr name v =
    if enabled () then
      match (buffer ()).stack with
      | [] -> ()
      | fr :: _ -> fr.f_attrs <- (name, v) :: fr.f_attrs
end

(* {1 Metrics registry} *)

module Metrics = struct
  type counter = { c_name : string; c_cell : int Atomic.t }

  let lock = Mutex.create ()
  let counters : (string, counter) Hashtbl.t = Hashtbl.create 16
  let gauges : (string, unit -> float) Hashtbl.t = Hashtbl.create 16

  let counter name =
    Mutex.lock lock;
    let c =
      match Hashtbl.find_opt counters name with
      | Some c -> c
      | None ->
          let c = { c_name = name; c_cell = Atomic.make 0 } in
          Hashtbl.replace counters name c;
          c
    in
    Mutex.unlock lock;
    c

  let add c n = if enabled () then ignore (Atomic.fetch_and_add c.c_cell n)
  let incr c = add c 1
  let value c = Atomic.get c.c_cell
  let name c = c.c_name

  let register_gauge gname f =
    Mutex.lock lock;
    Hashtbl.replace gauges gname f;
    Mutex.unlock lock

  let snapshot () =
    Mutex.lock lock;
    let cs =
      Hashtbl.fold (fun n c acc -> (n, float_of_int (Atomic.get c.c_cell)) :: acc) counters []
    in
    let gs = Hashtbl.fold (fun n f acc -> (n, f ()) :: acc) gauges [] in
    Mutex.unlock lock;
    List.sort (fun (a, _) (b, _) -> compare a b) (cs @ gs)

  let reset () =
    Mutex.lock lock;
    Hashtbl.iter (fun _ c -> Atomic.set c.c_cell 0) counters;
    Mutex.unlock lock
end

(* {1 Pool instrumentation hook}

   Ditto_util sits below this library, so the pool exposes a neutral
   task-wrapping hook and we install the span-creating wrapper here. The
   hook runs at submission time, which is exactly what lets a task record
   its submitter's span as parent even though it executes on another
   domain. *)

let pool_task_hook task =
  if not (enabled ()) then task
  else begin
    let parent = current () in
    let name =
      match parent with Some c -> "pool.task:" ^ c.ctx_name | None -> "pool.task"
    in
    fun () -> Span.with_span ?parent ~name task
  end

let hooks_installed = Atomic.make false

let install_hooks () =
  if not (Atomic.exchange hooks_installed true) then begin
    Ditto_util.Pool.set_task_hook pool_task_hook;
    let pool_gauge field =
      Metrics.register_gauge ("pool." ^ field) (fun () ->
          let s = Ditto_util.Pool.stats () in
          float_of_int
            (match field with
            | "tasks_queued" -> s.Ditto_util.Pool.tasks_queued
            | "tasks_stolen" -> s.Ditto_util.Pool.tasks_stolen
            | _ -> s.Ditto_util.Pool.tasks_by_workers))
    in
    List.iter pool_gauge [ "tasks_queued"; "tasks_stolen"; "tasks_by_workers" ];
    Metrics.register_gauge "obs.spans_dropped" (fun () -> float_of_int (dropped_spans ()))
  end

let enable () =
  install_hooks ();
  Atomic.set enabled_flag true

let disable () = Atomic.set enabled_flag false

(* {1 Exporters} *)

module Export = struct
  let spans () =
    List.concat_map
      (fun b ->
        let cap = Array.length b.ring in
        let n = min b.widx cap in
        List.init n (fun i -> b.ring.((b.widx - n + i) mod cap)))
      (buffers ())
    |> List.sort (fun a b ->
           compare (a.start_ns, a.domain, a.span_id) (b.start_ns, b.domain, b.span_id))

  let dropped = dropped_spans

  let clear () =
    List.iter
      (fun b ->
        b.widx <- 0;
        b.ring <- Array.make (Atomic.get capacity) dummy_completed)
      (buffers ())

  let us_of_ns ns = Int64.to_float ns /. 1e3
  let hex = Printf.sprintf "%x"

  let to_chrome ?(events = []) () =
    let spans = spans () in
    let base =
      match spans with [] -> 0L | s :: _ -> s.start_ns
      (* spans are sorted by start time, so the head is the origin *)
    in
    let events =
      List.map
        (fun b ->
          J.Obj
            [
              ("name", J.Str "thread_name");
              ("ph", J.Str "M");
              ("pid", J.int 1);
              ("tid", J.int b.dom);
              ("args", J.Obj [ ("name", J.Str (Printf.sprintf "domain %d" b.dom)) ]);
            ])
        (buffers ())
      @ List.map
          (fun s ->
            J.Obj
              [
                ("name", J.Str s.name);
                ("cat", J.Str "ditto");
                ("ph", J.Str "X");
                ("ts", J.Num (us_of_ns (Int64.sub s.start_ns base)));
                ("dur", J.Num (us_of_ns s.dur_ns));
                ("pid", J.int 1);
                ("tid", J.int s.domain);
                ( "args",
                  J.Obj
                    (("trace", J.Str (hex s.trace_id))
                    :: List.map (fun (k, v) -> (k, attr_to_json v)) s.attrs) );
              ])
          spans
      @ events
    in
    J.Obj
      [
        ("traceEvents", J.List events);
        ("displayTimeUnit", J.Str "ms");
        ("dittoMetrics", J.Obj (List.map (fun (k, v) -> (k, J.Num v)) (Metrics.snapshot ())));
      ]

  let jaeger_tag (k, v) =
    let ty, jv =
      match v with
      | Str s -> ("string", J.Str s)
      | Float f -> ("float64", J.Num f)
      | Int i -> ("int64", J.int i)
      | Bool b -> ("bool", J.Bool b)
    in
    J.Obj [ ("key", J.Str k); ("type", J.Str ty); ("value", jv) ]

  let to_jaeger () =
    let spans = spans () in
    let traces : (int, completed list ref) Hashtbl.t = Hashtbl.create 16 in
    let order = ref [] in
    List.iter
      (fun s ->
        match Hashtbl.find_opt traces s.trace_id with
        | Some r -> r := s :: !r
        | None ->
            Hashtbl.add traces s.trace_id (ref [ s ]);
            order := s.trace_id :: !order)
      spans;
    let span_json s =
      J.Obj
        [
          ("traceID", J.Str (hex s.trace_id));
          ("spanID", J.Str (hex s.span_id));
          ("operationName", J.Str s.name);
          ( "references",
            match s.parent_id with
            | None -> J.List []
            | Some p ->
                J.List
                  [
                    J.Obj
                      [
                        ("refType", J.Str "CHILD_OF");
                        ("traceID", J.Str (hex s.trace_id));
                        ("spanID", J.Str (hex p));
                      ];
                  ] );
          ("startTime", J.Num (us_of_ns s.start_ns));
          ("duration", J.Num (us_of_ns s.dur_ns));
          ("processID", J.Str (Printf.sprintf "p%d" s.domain));
          ("tags", J.List (List.map jaeger_tag s.attrs));
        ]
    in
    let trace_json tid =
      let ss = List.rev !(Hashtbl.find traces tid) in
      let domains = List.sort_uniq compare (List.map (fun s -> s.domain) ss) in
      J.Obj
        [
          ("traceID", J.Str (hex tid));
          ("spans", J.list span_json ss);
          ( "processes",
            J.Obj
              (List.map
                 (fun d -> (Printf.sprintf "p%d" d, J.Obj [ ("serviceName", J.Str "ditto") ]))
                 domains) );
        ]
    in
    J.Obj [ ("data", J.list trace_json (List.rev !order)) ]

  let write_chrome path = J.save path (to_chrome ())
  let write_jaeger path = J.save path (to_jaeger ())

  let write_traces ?(events = []) ?chrome ?jaeger () =
    let jaeger = if jaeger = None then Option.map (fun p -> p ^ ".jaeger.json") chrome else jaeger in
    let chrome_line path =
      J.save path (to_chrome ~events ());
      Printf.sprintf "wrote %s (%d spans, %d dropped%s)" path
        (List.length (spans ()))
        (dropped ())
        (if events = [] then "" else Printf.sprintf ", %d counter events" (List.length events))
    in
    let jaeger_line path =
      write_jaeger path;
      "wrote " ^ path
    in
    Option.to_list (Option.map chrome_line chrome) @ Option.to_list (Option.map jaeger_line jaeger)
end
