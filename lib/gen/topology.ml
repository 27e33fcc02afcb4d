open Ditto_app
module Block = Ditto_isa.Block
module Iform = Ditto_isa.Iform
module Rng = Ditto_util.Rng
module Dist = Ditto_util.Dist
module Dag = Ditto_trace.Dag
module Span = Ditto_trace.Span

type params = {
  tiers : int;
  seed : int;
  max_depth : int;
  fanout_shape : float;
  fanout_scale : float;
  reuse_s : float;
  request_types : int;
  call_budget : float;
}

let default ?(seed = 2023) ~tiers () =
  {
    tiers;
    seed;
    max_depth = 8;
    fanout_shape = 1.3;
    fanout_scale = 1.0;
    reuse_s = 1.1;
    request_types = 6;
    call_budget = 1.2;
  }

type t = {
  params : params;
  name : string;
  spec : Spec.t;
  dag : Dag.t;
  layers : int array;
}

let app_name n = Printf.sprintf "synth-%d" n

let parse_name name =
  match String.index_opt name '-' with
  | Some 5 when String.length name > 6 && String.sub name 0 5 = "synth" -> (
      match int_of_string_opt (String.sub name 6 (String.length name - 6)) with
      | Some n when n >= 2 -> Some n
      | _ -> None)
  | _ -> None

let entry_name = "gateway"
let tier_name i = if i = 0 then entry_name else Printf.sprintf "svc%03d" i

(* {1 Structure} *)

(* Layer occupancy follows a triangular profile peaked mid-depth — thin
   API edge, wide business-logic middle, consolidated storage bottom —
   which matches the hour-glass shape of published production graphs. *)
let assign_layers rng ~tiers ~depth =
  let layers = Array.make tiers 0 in
  (* One tier per layer first, so every depth is inhabited and the graph
     actually reaches [depth]. *)
  for i = 1 to depth do
    layers.(i) <- i
  done;
  let weight l = float_of_int (min l (depth + 1 - l)) in
  let dist = Dist.discrete (List.init depth (fun k -> (k + 1, weight (k + 1)))) in
  for i = depth + 1 to tiers - 1 do
    layers.(i) <- Dist.discrete_sample dist rng
  done;
  layers

(* In-memory edge being assembled; byte sizes and probabilities are filled
   in a second, canonically ordered pass. *)
type proto_edge = { mutable p : float; mutable rq : int; mutable rs : int }

let generate p =
  if p.tiers < 2 then invalid_arg "Topology.generate: need at least 2 tiers";
  if p.tiers > Layout.max_tiers then
    invalid_arg
      (Printf.sprintf "Topology.generate: %d tiers exceeds Layout.max_tiers (%d)" p.tiers
         Layout.max_tiers);
  let n = p.tiers in
  let master = Rng.create p.seed in
  let rng_struct = Rng.split master in
  let rng_bytes = Rng.split master in
  let rng_blocks = Rng.split master in
  let depth = max 1 (min p.max_depth (n - 1)) in
  let layers = assign_layers rng_struct ~tiers:n ~depth in
  let by_layer = Array.make (depth + 1) [] in
  for i = n - 1 downto 0 do
    by_layer.(layers.(i)) <- i :: by_layer.(layers.(i))
  done;
  let layer_arr = Array.map Array.of_list by_layer in
  (* out.(u) maps target index -> proto_edge; in_deg counts incoming. *)
  let out : (int, proto_edge) Hashtbl.t array = Array.init n (fun _ -> Hashtbl.create 4) in
  let in_deg = Array.make n 0 in
  let add_edge u v =
    if not (Hashtbl.mem out.(u) v) then begin
      Hashtbl.add out.(u) v { p = 1.0; rq = 0; rs = 0 };
      in_deg.(v) <- in_deg.(v) + 1
    end
  in
  (* Deep-reuse ranking: all tiers strictly below layer [l], deepest
     first, so Zipf rank 0 — the most popular target — is a bottom-layer
     storage tier shared across the graph. *)
  let deeper_than = Array.make (depth + 1) [||] in
  for l = 0 to depth - 1 do
    (* deepest layer first, index ascending within a layer *)
    let cells = ref [] in
    for dl = l + 1 to depth do
      cells := Array.to_list layer_arr.(dl) :: !cells
    done;
    deeper_than.(l) <- Array.of_list (List.concat !cells)
  done;
  let zipf_for = Array.make (depth + 1) None in
  for l = 0 to depth - 1 do
    let m = Array.length deeper_than.(l) in
    if m > 0 then zipf_for.(l) <- Some (Dist.zipf ~n:m ~s:p.reuse_s)
  done;
  (* Gateway request types: the layer-1 tiers are the API fan-out set,
     partitioned round-robin (after a seeded shuffle) into R endpoints. *)
  let layer1 = Array.copy layer_arr.(1) in
  Rng.shuffle rng_struct layer1;
  let ntypes = max 1 (min p.request_types (Array.length layer1)) in
  let type_targets = Array.make ntypes [] in
  Array.iteri (fun k v -> type_targets.(k mod ntypes) <- v :: type_targets.(k mod ntypes)) layer1;
  let type_targets = Array.map (fun l -> Array.of_list (List.rev l)) type_targets in
  Array.iter (fun v -> add_edge 0 v) layer1;
  (* Internal edges: per caller, a Pareto out-degree; each slot chains to
     the next layer with probability 1/2 or draws from the Zipf-ranked
     deep set, concentrating in-degree on the popular storage tiers. *)
  for u = 1 to n - 1 do
    let l = layers.(u) in
    if l < depth then begin
      let is_deep = l >= depth - 1 in
      let leaf = is_deep && Rng.float rng_struct 1.0 < 0.35 in
      if not leaf then begin
        let cand = deeper_than.(l) in
        let next = layer_arr.(l + 1) in
        let k = int_of_float (Dist.pareto rng_struct ~scale:p.fanout_scale ~shape:p.fanout_shape) in
        let k = max 1 (min k (min 16 (Array.length cand))) in
        let added = ref 0 and attempts = ref 0 in
        while !added < k && !attempts < 6 * k do
          incr attempts;
          let v =
            if Array.length next > 0 && Rng.float rng_struct 1.0 < 0.5 then
              Rng.choose rng_struct next
            else
              match zipf_for.(l) with
              | Some z -> cand.(Dist.zipf_sample z rng_struct)
              | None -> Rng.choose rng_struct cand
          in
          if not (Hashtbl.mem out.(u) v) then begin
            add_edge u v;
            incr added
          end
        done
      end
    end
  done;
  (* Connectivity patch: any tier at layer >= 2 nobody calls gets one
     caller from the layer above (layer-1 tiers are all gateway targets). *)
  for v = 1 to n - 1 do
    if in_deg.(v) = 0 && layers.(v) >= 2 then begin
      let above = layer_arr.(layers.(v) - 1) in
      add_edge (Rng.choose rng_struct above) v
    end
  done;
  (* Canonical pass: callers in index order, targets sorted ascending.
     Everything downstream (spec handlers, ground-truth DAG, spans) uses
     this order, so the graph is a pure function of params. *)
  let sorted_out =
    Array.init n (fun u ->
        let targets = Hashtbl.fold (fun v e acc -> (v, e) :: acc) out.(u) [] in
        let targets = List.sort (fun (a, _) (b, _) -> compare a b) targets in
        Array.of_list targets)
  in
  let msg_bytes =
    Dist.discrete [ (128, 4.0); (256, 3.0); (512, 2.0); (1024, 1.0); (4096, 0.4) ]
  in
  Array.iteri
    (fun u targets ->
      Array.iter
        (fun (_, e) ->
          e.rq <- Dist.discrete_sample msg_bytes rng_bytes + Rng.int rng_bytes 64;
          e.rs <- Dist.discrete_sample msg_bytes rng_bytes + Rng.int rng_bytes 64;
          e.p <- (if u = 0 then 1.0 else 0.35 +. Rng.float rng_bytes 0.6))
        targets)
    sorted_out;
  (* Call-probability budget: scale each internal caller's edge
     probabilities so their sum stays under budget — the expected RPC tree
     per request is then bounded by a geometric series independent of n. *)
  for u = 1 to n - 1 do
    let sum = Array.fold_left (fun a (_, e) -> a +. e.p) 0.0 sorted_out.(u) in
    if sum > p.call_budget then
      Array.iter (fun (_, e) -> e.p <- e.p *. p.call_budget /. sum) sorted_out.(u)
  done;
  (* Request-type popularity: Zipf-flavoured endpoint mix. *)
  let type_weights =
    Array.init ntypes (fun t -> 1.0 /. ((1.0 +. float_of_int t) ** 1.1))
  in
  let wsum = Array.fold_left ( +. ) 0.0 type_weights in
  let type_prob = Array.map (fun w -> w /. wsum) type_weights in
  let type_of_target = Hashtbl.create 32 in
  Array.iteri
    (fun t targets -> Array.iter (fun v -> Hashtbl.replace type_of_target v t) targets)
    type_targets;
  (* {2 Tier bodies} *)
  let iform = Iform.by_name in
  let add64 = iform "ADD_GPR64_GPR64"
  and xor64 = iform "XOR_GPR64_GPR64"
  and imul64 = iform "IMUL_GPR64_GPR64"
  and crc32 = iform "CRC32_GPR64_GPR64"
  and ld64 = iform "MOV_GPR64_MEM"
  and st64 = iform "MOV_MEM_GPR64"
  and cmpi = iform "CMP_GPR64_IMM"
  and jnz = iform "JNZ_REL" in
  let logic_block rng space ~label ~wset =
    let heap = space.Layout.heap in
    let span = min wset heap.Block.region_bytes in
    (* Long per-request instruction streams: the clone's bin sampler draws
       a working-set bin per emitted template, and large-bin selections are
       burst-quantized (14 accesses each). Short streams make the number
       of large-window templates a near-zero Poisson draw — entire tiers
       then clone with no L2/LLC traffic at all — so the block is sized to
       keep tens of large-bin templates in every emitted body. *)
    let ntemps = 300 + Rng.int rng 101 in
    let temps =
      List.init ntemps (fun j ->
          let dst = Block.gp (j mod 8) and src = Block.gp ((j + 3) mod 8) in
          match Rng.int rng 100 with
          | x when x < 26 -> Block.temp ~dst ~srcs:[| dst; src |] add64
          | x when x < 36 -> Block.temp ~dst ~srcs:[| dst; src |] xor64
          | x when x < 44 -> Block.temp ~dst ~srcs:[| dst; src |] imul64
          | x when x < 52 -> Block.temp ~dst ~srcs:[| dst; src |] crc32
          | x when x < 70 ->
              (* Most loads roam the working set uniformly: production heaps
                 miss, and strided walks alone emit near-zero L2/LLC traffic.
                 The remainder (plus the stores below) walk strided in
                 lockstep, collapsing onto a shared warm line — the cheap
                 L1-hit ballast that stands in for the original's hot locals.
                 The balance matters to the clone, not just the original:
                 warm-line reuse mass competes with the large-window bins in
                 the clone's access sampler, and if it dominates, tiers clone
                 with no L2/LLC traffic at all (the large-bin selection
                 weight is burst-quantized at 14 accesses per template). *)
              let mem =
                if Rng.int rng 10 < 3 then
                  Block.Seq_stride { region = heap; start = 0; stride = 64; span }
                else Block.Rand_uniform { region = heap; start = 0; span }
              in
              Block.temp ~dst ~mem ld64
          | x when x < 80 ->
              Block.temp ~srcs:[| src |]
                ~mem:(Block.Seq_stride { region = heap; start = 0; stride = 64; span })
                st64
          | x when x < 90 -> Block.temp ~srcs:[| dst |] cmpi
          | _ ->
              Block.temp
                ~branch:{ Block.m = 1 + Rng.int rng 3; n = 3 + Rng.int rng 3; invert = false }
                jnz)
    in
    Block.make ~label ~code_base:(Layout.code_window space ~index:0) temps
  in
  let probe_block space ~label ~span =
    let heap = space.Layout.heap in
    let span = min span heap.Block.region_bytes in
    let chase = Block.Chase { region = heap; start = 0; span } in
    let temps =
      List.init 16 (fun j ->
          let dst = Block.gp (j mod 8) in
          if j mod 2 = 0 then Block.temp ~dst ~mem:chase ld64
          else Block.temp ~dst ~srcs:[| dst; Block.gp ((j + 1) mod 8) |] add64)
    in
    Block.make ~label ~code_base:(Layout.code_window space ~index:1) temps
  in
  let mk_tier i =
    let name = tier_name i in
    let l = layers.(i) in
    let rng = Rng.split rng_blocks in
    let deep = i > 0 && l >= depth - 1 in
    (* Heap sizes are chosen so cache misses are intrinsic to the tier, not
       an artifact of co-residency: the clone pipeline reconstructs a
       working set of 2^l as a [2^(l-1), 2^l) window clamped to the heap,
       so a deep tier must roam >= 64MB for the reconstructed 32MB window
       to bust the 30MB LLC by itself, and a leaf/mid tier's 4-8MB set
       must sit in a heap large enough that its halved window still
       exceeds the 1MB L2. Contention-only misses do not survive cloning —
       the reconstructed footprints are too small to reproduce them. *)
    let heap_bytes =
      if i = 0 then 4 lsl 20
      else if deep then (64 lsl 20) + (Rng.int rng 3 * (16 lsl 20)) (* 64..96MB *)
      else (8 lsl 20) + (Rng.int rng 3 * (4 lsl 20)) (* 8..16MB *)
    in
    let space = Layout.space ~tier_index:i ~heap_bytes ~shared_bytes:(1 lsl 16) in
    let targets = sorted_out.(i) in
    let request_bytes = if i = 0 then 256 else 64 + Rng.int rng 448 in
    let response_bytes = if i = 0 then 1024 else 64 + Rng.int rng 960 in
    let calls =
      Array.map
        (fun (v, (e : proto_edge)) ->
          (tier_name v, e.p, Spec.Call { target = tier_name v; req_bytes = e.rq; resp_bytes = e.rs }))
        targets
    in
    let handler =
      if i = 0 then begin
        let parse = logic_block rng space ~label:(name ^ ".parse") ~wset:(2 lsl 20) in
        let type_dist =
          Dist.discrete (List.init ntypes (fun t -> (t, type_prob.(t))))
        in
        (* Per-type downstream lists are fixed, so they are precomputed
           and shared: the per-request allocation is one list cell. *)
        let call_by_target = Hashtbl.create 32 in
        Array.iter (fun (tn, _, call) -> Hashtbl.replace call_by_target tn call) calls;
        let type_calls =
          Array.map
            (fun tgts ->
              Array.to_list tgts
              |> List.map (fun v -> Hashtbl.find call_by_target (tier_name v)))
            type_targets
        in
        fun rng _req ->
          let t = Dist.discrete_sample type_dist rng in
          Spec.Compute (parse, 2) :: type_calls.(t)
      end
      else begin
        let wset = if deep then heap_bytes else 1 lsl (22 + Rng.int rng 2) in
        let iters = if deep then 2 + Rng.int rng 2 else 3 + Rng.int rng 3 in
        let logic = logic_block rng space ~label:(name ^ ".logic") ~wset in
        let probe =
          if deep then
            Some (Spec.Compute (probe_block space ~label:(name ^ ".probe") ~span:heap_bytes, 2))
          else None
        in
        let prefix =
          match probe with
          | Some pr -> [ Spec.Compute (logic, iters); pr ]
          | None -> [ Spec.Compute (logic, iters) ]
        in
        if Array.length calls = 0 then fun _rng _req -> prefix
        else
          fun rng _req ->
            let acc = ref [] in
            for j = Array.length calls - 1 downto 0 do
              let _, pcall, call = calls.(j) in
              if Rng.float rng 1.0 < pcall then acc := call :: !acc
            done;
            prefix @ !acc
      end
    in
    let server_model = if deep then Spec.Blocking else Spec.Io_multiplexing in
    let client_model =
      if i = 0 || Array.length targets >= 4 then Spec.Async_client else Spec.Sync_client
    in
    let workers = if i = 0 then 4 else 2 in
    Spec.tier ~server_model ~client_model ~workers ~request_bytes ~response_bytes ~heap_bytes
      ~shared_bytes:(1 lsl 16) ~name ~handler ()
  in
  let tiers = List.init n mk_tier in
  let spec = Spec.make ~name:(app_name n) ~entry:entry_name tiers in
  (* {2 Ground truth} *)
  let edges =
    List.concat
      (List.init n (fun u ->
           Array.to_list sorted_out.(u)
           |> List.map (fun (v, (e : proto_edge)) ->
                  let p =
                    if u = 0 then type_prob.(Hashtbl.find type_of_target v) else e.p
                  in
                  {
                    Dag.caller = tier_name u;
                    callee = tier_name v;
                    calls_per_request = p;
                    probability = p;
                    req_bytes = e.rq;
                    resp_bytes = e.rs;
                  })))
  in
  let dag = { Dag.entry = entry_name; services = List.init n tier_name; edges } in
  { params = p; name = app_name n; spec; dag; layers }

(* {1 Trace emission} *)

let spans t =
  let n = t.params.tiers in
  let index_of = Hashtbl.create (2 * n) in
  List.iteri (fun i s -> Hashtbl.replace index_of s i) t.dag.Dag.services;
  let in_edges = Array.make n [] in
  let entry_targets = ref [] in
  List.iter
    (fun (e : Dag.edge) ->
      let u = Hashtbl.find index_of e.Dag.caller and v = Hashtbl.find index_of e.Dag.callee in
      in_edges.(v) <- (u, e) :: in_edges.(v);
      if u = 0 then entry_targets := v :: !entry_targets)
    t.dag.Dag.edges;
  Array.iteri (fun v l -> in_edges.(v) <- List.rev l) in_edges;
  (* Partition entry targets back into request types via the stored layer
     structure: they are exactly the layer-1 tiers; recover each target's
     type from its gateway edge (one per target), grouping by traversal. *)
  let out_edges = Array.make n [] in
  List.iter
    (fun (e : Dag.edge) ->
      let u = Hashtbl.find index_of e.Dag.caller and v = Hashtbl.find index_of e.Dag.callee in
      out_edges.(u) <- (v, e) :: out_edges.(u))
    t.dag.Dag.edges;
  Array.iteri (fun v l -> out_edges.(v) <- List.rev l) out_edges;
  (* One trace covers the closure of one entry target group; emitting the
     whole graph in a single trace would also work, but per-type traces
     mirror what a sampled tracer actually sees. Group = all gateway
     targets (types are a partition of them); we emit one trace per
     gateway target set chunk of size <= 8 to keep traces request-like. *)
  let order = Array.init n (fun i -> i) in
  Array.sort
    (fun a b -> compare (t.layers.(a), a) (t.layers.(b), b))
    order;
  let all_targets = List.rev !entry_targets in
  let groups =
    (* chunk entry targets so each trace resembles one request type *)
    let rec chunk acc cur k = function
      | [] -> List.rev (if cur = [] then acc else List.rev cur :: acc)
      | v :: rest ->
          if k = 8 then chunk (List.rev cur :: acc) [ v ] 1 rest
          else chunk acc (v :: cur) (k + 1) rest
    in
    chunk [] [] 0 all_targets
  in
  let spans = ref [] in
  List.iteri
    (fun i group ->
      let tid = i + 1 in
      let in_closure = Array.make n false in
      in_closure.(0) <- true;
      let q = Queue.create () in
      List.iter
        (fun v ->
          if not in_closure.(v) then begin
            in_closure.(v) <- true;
            Queue.push v q
          end)
        group;
      while not (Queue.is_empty q) do
        let u = Queue.pop q in
        List.iter
          (fun (v, _) ->
            if not in_closure.(v) then begin
              in_closure.(v) <- true;
              Queue.push v q
            end)
          out_edges.(u)
      done;
      let group_set = Hashtbl.create 16 in
      List.iter (fun v -> Hashtbl.replace group_set v ()) group;
      let canonical = Array.make n (-1) in
      let next_span = ref 1 in
      let emit ~service ~parent ~rq ~rs =
        let sid = !next_span in
        incr next_span;
        spans :=
          {
            Span.trace_id = tid;
            span_id = (tid * 0x1_0000) + sid;
            parent_span = parent;
            service;
            req_bytes = rq;
            resp_bytes = rs;
          }
          :: !spans;
        (tid * 0x1_0000) + sid
      in
      let root =
        emit ~service:t.dag.Dag.entry ~parent:None ~rq:256 ~rs:1024
      in
      canonical.(0) <- root;
      Array.iter
        (fun v ->
          if v <> 0 && in_closure.(v) then
            List.iter
              (fun (u, (e : Dag.edge)) ->
                let covered =
                  if u = 0 then Hashtbl.mem group_set v
                  else in_closure.(u)
                in
                if covered then begin
                  let sid =
                    emit ~service:e.Dag.callee
                      ~parent:(Some canonical.(u))
                      ~rq:e.Dag.req_bytes ~rs:e.Dag.resp_bytes
                  in
                  if canonical.(v) = -1 then canonical.(v) <- sid
                end)
              in_edges.(v))
        order)
    groups;
  List.rev !spans

let same_shape (a : Dag.t) (b : Dag.t) =
  let key (e : Dag.edge) = (e.Dag.caller, e.Dag.callee, e.Dag.req_bytes, e.Dag.resp_bytes) in
  a.Dag.entry = b.Dag.entry
  && List.sort compare a.Dag.services = List.sort compare b.Dag.services
  && List.sort compare (List.map key a.Dag.edges) = List.sort compare (List.map key b.Dag.edges)
