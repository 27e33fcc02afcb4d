open Ditto_util.Jsonx
module J = Ditto_util.Jsonx
module Syscall = Ditto_os.Syscall
module Spec = Ditto_app.Spec

let version = 1

(* {1 Leaf encoders} *)

let server_model_to_json = function
  | Spec.Blocking -> Str "blocking"
  | Spec.Nonblocking -> Str "nonblocking"
  | Spec.Io_multiplexing -> Str "io_multiplexing"

let server_model_of_json j =
  match to_str j with
  | "blocking" -> Spec.Blocking
  | "nonblocking" -> Spec.Nonblocking
  | "io_multiplexing" -> Spec.Io_multiplexing
  | s -> raise (Parse_error ("unknown server model " ^ s))

let client_model_to_json = function
  | Spec.Sync_client -> Str "sync"
  | Spec.Async_client -> Str "async"

let client_model_of_json j =
  match to_str j with
  | "sync" -> Spec.Sync_client
  | "async" -> Spec.Async_client
  | s -> raise (Parse_error ("unknown client model " ^ s))

let syscall_to_json k =
  Obj
    [
      ("name", Str (Syscall.name k));
      ("bytes", int (Syscall.payload_bytes k));
      ( "seconds",
        match k with Syscall.Nanosleep { seconds } -> Num seconds | _ -> Num 0.0 );
      ( "random",
        match k with Syscall.Pread { random; _ } -> Bool random | _ -> Bool false );
    ]

let syscall_of_json j =
  let bytes = to_int (member "bytes" j) in
  match to_str (member "name" j) with
  | "pread" -> Syscall.Pread { bytes; random = to_bool (member "random" j) }
  | "pwrite" -> Syscall.Pwrite { bytes }
  | "sock_read" -> Syscall.Sock_read { bytes }
  | "sock_write" -> Syscall.Sock_write { bytes }
  | "epoll_wait" -> Syscall.Epoll_wait
  | "accept" -> Syscall.Accept
  | "futex_wait" -> Syscall.Futex_wait
  | "futex_wake" -> Syscall.Futex_wake
  | "mmap" -> Syscall.Mmap { bytes }
  | "clone" -> Syscall.Clone
  | "nanosleep" -> Syscall.Nanosleep { seconds = to_float (member "seconds" j) }
  | "gettime" -> Syscall.Gettime
  | s -> raise (Parse_error ("unknown syscall " ^ s))

let int_pairs_to_json = list (pair int int)

let int_pairs_of_json j =
  List.map
    (fun p ->
      match to_list p with
      | [ a; b ] -> (to_int a, to_int b)
      | _ -> raise (Parse_error "expected pair"))
    (to_list j)

let weighted_int_to_json = list (pair int (fun f -> Num f))

let weighted_int_of_json j =
  List.map
    (fun p ->
      match to_list p with
      | [ a; b ] -> (to_int a, to_float b)
      | _ -> raise (Parse_error "expected pair"))
    (to_list j)

(* {1 Section encoders} *)

let skeleton_to_json (s : Skeleton.t) =
  Obj
    [
      ("server_model", server_model_to_json s.Skeleton.server_model);
      ("client_model", client_model_to_json s.Skeleton.client_model);
      ("worker_threads", int s.Skeleton.worker_threads);
      ("dynamic_threads", Bool s.Skeleton.dynamic_threads);
      ( "thread_classes",
        list
          (fun (c : Skeleton.thread_class) ->
            Obj
              [
                ("cluster_size", int c.Skeleton.cluster_size);
                ("long_lived", Bool c.Skeleton.long_lived);
                ("trigger", Str (match c.Skeleton.trigger with `Socket -> "socket" | `Timer -> "timer"));
              ])
          s.Skeleton.thread_classes );
      ("background", list (pair (fun n -> Str n) (fun p -> Num p)) s.Skeleton.background);
      ("request_bytes", int s.Skeleton.request_bytes);
      ("response_bytes", int s.Skeleton.response_bytes);
    ]

let skeleton_of_json j : Skeleton.t =
  {
    Skeleton.server_model = server_model_of_json (member "server_model" j);
    client_model = client_model_of_json (member "client_model" j);
    worker_threads = to_int (member "worker_threads" j);
    dynamic_threads = to_bool (member "dynamic_threads" j);
    thread_classes =
      List.map
        (fun c ->
          {
            Skeleton.cluster_size = to_int (member "cluster_size" c);
            long_lived = to_bool (member "long_lived" c);
            trigger =
              (match to_str (member "trigger" c) with
              | "timer" -> `Timer
              | _ -> `Socket);
          })
        (to_list (member "thread_classes" j));
    background =
      List.map
        (fun p ->
          match to_list p with
          | [ n; s ] -> (to_str n, to_float s)
          | _ -> raise (Parse_error "expected background pair"))
        (to_list (member "background" j));
    request_bytes = to_int (member "request_bytes" j);
    response_bytes = to_int (member "response_bytes" j);
  }

let instmix_to_json (m : Instmix.t) =
  Obj
    [
      ("insts_per_request", Num m.Instmix.insts_per_request);
      ("iform_counts", int_pairs_to_json m.Instmix.iform_counts);
      ("clusters", list (pair (list int) (fun w -> Num w)) m.Instmix.clusters);
      ("rep_mean_count", Num m.Instmix.rep_mean_count);
      ("rep_fraction", Num m.Instmix.rep_fraction);
    ]

let instmix_of_json j : Instmix.t =
  {
    Instmix.insts_per_request = to_float (member "insts_per_request" j);
    iform_counts = int_pairs_of_json (member "iform_counts" j);
    clusters =
      List.map
        (fun p ->
          match to_list p with
          | [ ids; w ] -> (List.map to_int (to_list ids), to_float w)
          | _ -> raise (Parse_error "expected cluster pair"))
        (to_list (member "clusters" j));
    rep_mean_count = to_float (member "rep_mean_count" j);
    rep_fraction = to_float (member "rep_fraction" j);
  }

let working_set_to_json (w : Working_set.t) =
  Obj
    [
      ("d_hits", int_pairs_to_json w.Working_set.d_hits);
      ("d_accesses_total", int w.Working_set.d_accesses_total);
      ("d_working_sets", weighted_int_to_json w.Working_set.d_working_sets);
      ("i_hits", int_pairs_to_json w.Working_set.i_hits);
      ("i_accesses_total", int w.Working_set.i_accesses_total);
      ("i_working_sets", weighted_int_to_json w.Working_set.i_working_sets);
      ("regular_ratio", Num w.Working_set.regular_ratio);
      ("shared_ratio", Num w.Working_set.shared_ratio);
      ("write_ratio", Num w.Working_set.write_ratio);
    ]

let working_set_of_json j : Working_set.t =
  {
    Working_set.d_hits = int_pairs_of_json (member "d_hits" j);
    d_accesses_total = to_int (member "d_accesses_total" j);
    d_working_sets = weighted_int_of_json (member "d_working_sets" j);
    i_hits = int_pairs_of_json (member "i_hits" j);
    i_accesses_total = to_int (member "i_accesses_total" j);
    i_working_sets = weighted_int_of_json (member "i_working_sets" j);
    regular_ratio = to_float (member "regular_ratio" j);
    shared_ratio = to_float (member "shared_ratio" j);
    write_ratio = to_float (member "write_ratio" j);
  }

let branches_to_json (b : Branches.t) =
  Obj
    [
      ( "sites",
        list
          (fun ((s : Branches.site), p) ->
            Obj
              [
                ("m", int s.Branches.m);
                ("n", int s.Branches.n);
                ("invert", Bool s.Branches.invert);
                ("p", Num p);
              ])
          b.Branches.sites );
      ("static_branches", int b.Branches.static_branches);
      ("branch_fraction", Num b.Branches.branch_fraction);
    ]

let branches_of_json j : Branches.t =
  {
    Branches.sites =
      List.map
        (fun s ->
          ( {
              Branches.m = to_int (member "m" s);
              n = to_int (member "n" s);
              invert = to_bool (member "invert" s);
            },
            to_float (member "p" s) ))
        (to_list (member "sites" j));
    static_branches = to_int (member "static_branches" j);
    branch_fraction = to_float (member "branch_fraction" j);
  }

let float_array_to_json a = List (Array.to_list (Array.map (fun f -> Num f) a))
let float_array_of_json j = Array.of_list (List.map to_float (to_list j))

let deps_to_json (d : Deps.t) =
  Obj
    [
      ("raw", float_array_to_json d.Deps.raw);
      ("raw_addr", float_array_to_json d.Deps.raw_addr);
      ("war", float_array_to_json d.Deps.war);
      ("waw", float_array_to_json d.Deps.waw);
      ("chase_fraction", Num d.Deps.chase_fraction);
    ]

let deps_of_json j : Deps.t =
  {
    Deps.raw = float_array_of_json (member "raw" j);
    raw_addr = float_array_of_json (member "raw_addr" j);
    war = float_array_of_json (member "war" j);
    waw = float_array_of_json (member "waw" j);
    chase_fraction = to_float (member "chase_fraction" j);
  }

let syscalls_to_json (s : Syscalls.t) =
  Obj
    [
      ( "file",
        match s.Syscalls.file with
        | None -> Null
        | Some f ->
            Obj
              [
                ("reads_per_request", Num f.Syscalls.reads_per_request);
                ("read_bytes_mean", int f.Syscalls.read_bytes_mean);
                ("random_ratio", Num f.Syscalls.random_ratio);
                ("offset_span", int f.Syscalls.offset_span);
                ("writes_per_request", Num f.Syscalls.writes_per_request);
                ("write_bytes_mean", int f.Syscalls.write_bytes_mean);
              ] );
      ("misc", list (pair syscall_to_json (fun c -> Num c)) s.Syscalls.misc);
    ]

let syscalls_of_json j : Syscalls.t =
  {
    Syscalls.file =
      (match member "file" j with
      | Null -> None
      | f ->
          Some
            {
              Syscalls.reads_per_request = to_float (member "reads_per_request" f);
              read_bytes_mean = to_int (member "read_bytes_mean" f);
              random_ratio = to_float (member "random_ratio" f);
              offset_span = to_int (member "offset_span" f);
              writes_per_request = to_float (member "writes_per_request" f);
              write_bytes_mean = to_int (member "write_bytes_mean" f);
            });
    misc =
      List.map
        (fun p ->
          match to_list p with
          | [ k; c ] -> (syscall_of_json k, to_float c)
          | _ -> raise (Parse_error "expected misc pair"))
        (to_list (member "misc" j));
  }

let rec tier_to_json (t : Tier_profile.t) =
  Obj
    [
      ("tier_name", Str t.Tier_profile.tier_name);
      ("skeleton", skeleton_to_json t.Tier_profile.skeleton);
      ("instmix", instmix_to_json t.Tier_profile.instmix);
      ("working_set", working_set_to_json t.Tier_profile.working_set);
      ("branches", branches_to_json t.Tier_profile.branches);
      ("deps", deps_to_json t.Tier_profile.deps);
      ("syscalls", syscalls_to_json t.Tier_profile.syscalls);
      ("heap_bytes", int t.Tier_profile.heap_bytes);
      ("shared_bytes", int t.Tier_profile.shared_bytes);
      ("file_bytes", int t.Tier_profile.file_bytes);
      ( "background",
        match t.Tier_profile.background with None -> Null | Some b -> tier_to_json b );
    ]

let rec tier_of_json j : Tier_profile.t =
  {
    Tier_profile.tier_name = to_str (member "tier_name" j);
    skeleton = skeleton_of_json (member "skeleton" j);
    instmix = instmix_of_json (member "instmix" j);
    working_set = working_set_of_json (member "working_set" j);
    branches = branches_of_json (member "branches" j);
    deps = deps_of_json (member "deps" j);
    syscalls = syscalls_of_json (member "syscalls" j);
    heap_bytes = to_int (member "heap_bytes" j);
    shared_bytes = to_int (member "shared_bytes" j);
    file_bytes = to_int (member "file_bytes" j);
    background =
      (match member "background" j with Null -> None | b -> Some (tier_of_json b));
  }

let dag_to_json (d : Ditto_trace.Dag.t) =
  Obj
    [
      ("entry", Str d.Ditto_trace.Dag.entry);
      ("services", list (fun s -> Str s) d.Ditto_trace.Dag.services);
      ( "edges",
        list
          (fun (e : Ditto_trace.Dag.edge) ->
            Obj
              [
                ("caller", Str e.Ditto_trace.Dag.caller);
                ("callee", Str e.Ditto_trace.Dag.callee);
                ("calls_per_request", Num e.Ditto_trace.Dag.calls_per_request);
                ("probability", Num e.Ditto_trace.Dag.probability);
                ("req_bytes", int e.Ditto_trace.Dag.req_bytes);
                ("resp_bytes", int e.Ditto_trace.Dag.resp_bytes);
              ])
          d.Ditto_trace.Dag.edges );
    ]

let dag_of_json j : Ditto_trace.Dag.t =
  {
    Ditto_trace.Dag.entry = to_str (member "entry" j);
    services = List.map to_str (to_list (member "services" j));
    edges =
      List.map
        (fun e ->
          {
            Ditto_trace.Dag.caller = to_str (member "caller" e);
            callee = to_str (member "callee" e);
            calls_per_request = to_float (member "calls_per_request" e);
            probability = to_float (member "probability" e);
            req_bytes = to_int (member "req_bytes" e);
            resp_bytes = to_int (member "resp_bytes" e);
          })
        (to_list (member "edges" j));
  }

let to_json (app : Tier_profile.app) =
  Obj
    [
      ("format", Str "ditto-profile");
      ("version", int version);
      ("app_name", Str app.Tier_profile.app_name);
      ("entry", Str app.Tier_profile.entry);
      ( "page_cache_hint",
        match app.Tier_profile.page_cache_hint with None -> Null | Some b -> int b );
      ("dag", match app.Tier_profile.dag with None -> Null | Some d -> dag_to_json d);
      ("tiers", list tier_to_json app.Tier_profile.tiers);
    ]

let of_json j : Tier_profile.app =
  (match member "format" j with
  | Str "ditto-profile" -> ()
  | _ -> raise (Parse_error "not a ditto profile"));
  let v = to_int (member "version" j) in
  if v <> version then
    raise (Parse_error (Printf.sprintf "unsupported profile version %d (have %d)" v version));
  {
    Tier_profile.app_name = to_str (member "app_name" j);
    entry = to_str (member "entry" j);
    page_cache_hint =
      (match member "page_cache_hint" j with Null -> None | b -> Some (to_int b));
    dag = (match member "dag" j with Null -> None | d -> Some (dag_of_json d));
    tiers = List.map tier_of_json (to_list (member "tiers" j));
  }

let save path app = J.save path (to_json app)
let load path = of_json (J.load path)
