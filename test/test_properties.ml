(* Cross-cutting property tests: randomised invariants over the substrate
   (engine ordering, JSON round-trips, metric properties of distances,
   conservation laws of the working-set equations, address-stream bounds). *)
module J = Ditto_util.Jsonx
module Rng = Ditto_util.Rng
module Stats = Ditto_util.Stats
open Ditto_isa

let qt = QCheck_alcotest.to_alcotest

(* {1 Engine: random workloads keep virtual time causal} *)

let prop_engine_causal =
  QCheck.Test.make ~name:"engine: processes finish at spawn+waits" ~count:50
    QCheck.(list_of_size (Gen.int_range 1 20) (float_range 0.0 10.0))
    (fun waits ->
      let engine = Ditto_sim.Engine.create () in
      let ok = ref true in
      List.iteri
        (fun i w ->
          Ditto_sim.Engine.spawn engine (fun () ->
              Ditto_sim.Engine.wait w;
              Ditto_sim.Engine.wait w;
              let expected = 2.0 *. w in
              if Float.abs (Ditto_sim.Engine.now engine -. expected) > 1e-9 then ok := false;
              ignore i))
        waits;
      Ditto_sim.Engine.run engine;
      !ok)

let prop_resource_never_oversubscribed =
  QCheck.Test.make ~name:"resource: concurrency never exceeds capacity" ~count:30
    QCheck.(pair (int_range 1 4) (int_range 1 30))
    (fun (cap, jobs) ->
      let engine = Ditto_sim.Engine.create () in
      let r = Ditto_sim.Engine.Resource.create cap in
      let active = ref 0 and peak = ref 0 in
      for _ = 1 to jobs do
        Ditto_sim.Engine.spawn engine (fun () ->
            Ditto_sim.Engine.Resource.with_resource r (fun () ->
                incr active;
                if !active > !peak then peak := !active;
                Ditto_sim.Engine.wait 1.0;
                decr active))
      done;
      Ditto_sim.Engine.run engine;
      !peak <= cap)

(* {1 Jsonx: random documents round-trip} *)

let json_gen =
  let open QCheck.Gen in
  let leaf =
    oneof
      [
        return J.Null;
        map (fun b -> J.Bool b) bool;
        map (fun i -> J.int i) (int_range (-1000000) 1000000);
        map (fun f -> J.Num f) (float_bound_inclusive 1e6);
        map (fun s -> J.Str s) (string_size ~gen:printable (int_range 0 12));
      ]
  in
  let rec doc depth =
    if depth = 0 then leaf
    else
      oneof
        [
          leaf;
          map (fun l -> J.List l) (list_size (int_range 0 4) (doc (depth - 1)));
          map
            (fun kvs -> J.Obj kvs)
            (list_size (int_range 0 4)
               (pair (string_size ~gen:printable (int_range 1 8)) (doc (depth - 1))));
        ]
  in
  doc 3

let prop_json_roundtrip =
  QCheck.Test.make ~name:"jsonx: parse (print v) = v" ~count:300
    (QCheck.make json_gen)
    (fun v ->
      (* duplicate object keys are legal JSON but not preserved as-is;
         normalise by first-wins lookup semantics: compare prints. *)
      let s = J.to_string v in
      J.to_string (J.of_string s) = s)

let prop_json_pretty_equiv =
  QCheck.Test.make ~name:"jsonx: pretty and compact parse identically" ~count:200
    (QCheck.make json_gen)
    (fun v -> J.of_string (J.to_string ~pretty:true v) = J.of_string (J.to_string v))

(* {1 KS distance: metric-ish properties} *)

let float_array = QCheck.(array_of_size (QCheck.Gen.int_range 1 100) (float_range (-50.) 50.))

let prop_ks_bounds =
  QCheck.Test.make ~name:"ks: in [0,1]" ~count:200
    QCheck.(pair float_array float_array)
    (fun (a, b) ->
      let d = Stats.ks_distance a b in
      d >= 0.0 && d <= 1.0)

let prop_ks_self_zero =
  QCheck.Test.make ~name:"ks: d(a,a) = 0" ~count:200 float_array
    (fun a -> Stats.ks_distance a a < 1e-12)

let prop_ks_symmetric =
  QCheck.Test.make ~name:"ks: symmetric" ~count:200
    QCheck.(pair float_array float_array)
    (fun (a, b) -> Float.abs (Stats.ks_distance a b -. Stats.ks_distance b a) < 1e-12)

(* {1 Tree edit distance: metric properties on random trees} *)

let tree_gen =
  let open QCheck.Gen in
  let rec t depth =
    if depth = 0 then map (fun l -> Ditto_util.Tree_edit.leaf l) (int_range 0 3)
    else
      map2
        (fun l cs -> Ditto_util.Tree_edit.node l cs)
        (int_range 0 3)
        (list_size (int_range 0 3) (t (depth - 1)))
  in
  t 2

let prop_tree_edit_metric =
  QCheck.Test.make ~name:"tree edit: identity, symmetry, triangle" ~count:60
    (QCheck.make QCheck.Gen.(triple tree_gen tree_gen tree_gen))
    (fun (a, b, c) ->
      let d = Ditto_util.Tree_edit.distance in
      d a a = 0.0
      && d a b = d b a
      && d a b <= d a c +. d c b +. 1e-9)

(* {1 Working-set equations: conservation} *)

(* Monotone hit profile (caches only gain hits as they grow) from random
   per-size increments. *)
let monotone_profile raw =
  let acc = ref 0 in
  List.mapi
    (fun i h ->
      acc := !acc + h;
      (i + 6, !acc))
    raw

let prop_eq1_conserves_hits =
  QCheck.Test.make ~name:"eq1: sum of A_d equals hits at the largest size" ~count:100
    QCheck.(list_of_size (Gen.int_range 1 10) (int_range 0 10000))
    (fun raw ->
      let profile = monotone_profile raw in
      let requests = 4 in
      let a = Ditto_profile.Working_set.eq1 ~requests profile in
      let total = List.fold_left (fun s (_, x) -> s +. x) 0.0 a in
      let h_max = float_of_int (List.fold_left (fun _ (_, h) -> h) 0 profile) in
      Float.abs (total -. (h_max /. float_of_int requests)) < 1e-6)

let prop_eq2_nonnegative =
  QCheck.Test.make ~name:"eq2: all executions non-negative" ~count:100
    QCheck.(list_of_size (Gen.int_range 1 10) (int_range 0 10000))
    (fun raw ->
      let e = Ditto_profile.Working_set.eq2 ~requests:2 (monotone_profile raw) in
      List.for_all (fun (_, x) -> x >= 0.0) e)

(* {1 Memory patterns: addresses stay within their regions} *)

let region = Block.make_region ~base:0x2000_0000 ~bytes:(1 lsl 22) ~shared:false

let pattern_gen =
  let open QCheck.Gen in
  let aligned_span = map (fun l -> 64 * max 1 l) (int_range 1 1000) in
  oneof
    [
      map (fun o -> Block.Fixed_offset { region; offset = o land lnot 63 }) (int_range 0 ((1 lsl 22) - 64));
      map2
        (fun start span ->
          let start = min start ((1 lsl 22) - span) land lnot 63 in
          Block.Seq_stride { region; start = max 0 start; stride = 64; span })
        (int_range 0 (1 lsl 21))
        aligned_span;
      map2
        (fun start span ->
          let start = min start ((1 lsl 22) - span) land lnot 63 in
          Block.Rand_uniform { region; start = max 0 start; span })
        (int_range 0 (1 lsl 21))
        aligned_span;
      map (fun span -> Block.Chase { region; start = 0; span }) aligned_span;
    ]

let prop_resolve_within_region =
  QCheck.Test.make ~name:"resolve_mem: addresses inside the region" ~count:200
    (QCheck.make pattern_gen)
    (fun mem ->
      let temp = Block.temp (Iform.by_name "MOV_GPR64_MEM") ~dst:0 ~srcs:[| 1 |] ~mem in
      let rng = Rng.create 7 in
      let ok = ref true in
      for _ = 1 to 200 do
        let addr, _ = Block.resolve_mem ~rng temp in
        if
          addr < region.Block.region_base
          || addr >= region.Block.region_base + region.Block.region_bytes
        then ok := false
      done;
      !ok)

(* {1 Stats: the radix sort orders like [Array.sort compare]} *)

(* Every class the sort's key mapping has to place: NaN, infinities,
   signed zeros, subnormals and the extremes of both signs, small integers
   (so duplicates are common), ordinary values, and arbitrary bit patterns
   (NaNs of both signs with any payload among them). *)
let special_floats =
  [|
    nan; -.nan; infinity; neg_infinity; 0.0; -0.0; 5e-324; -5e-324;
    Float.pred Float.min_float; -.Float.pred Float.min_float; Float.min_float; max_float;
    -.max_float;
  |]

let sample_float =
  QCheck.Gen.(
    frequency
      [
        (1, oneofa special_floats);
        (2, map float_of_int (int_range (-4) 4));
        (2, float_range (-1e6) 1e6);
        (2, map Int64.float_of_bits ui64);
      ])

(* Half the arrays hold latency-like samples instead: their keys share the
   top byte, so the sort skips that pass and ends in its spare buffer. *)
let small_arrays =
  QCheck.make
    ~print:(fun a -> String.concat " " (Array.to_list (Array.map (Printf.sprintf "%h") a)))
    QCheck.Gen.(
      oneofl [ sample_float; float_range 1e-4 5e-2 ] >>= array_size (int_range 0 5000))

let large_array =
  QCheck.make
    ~print:(fun a -> Printf.sprintf "%d floats" (Array.length a))
    QCheck.Gen.(array_size (return 100_000) sample_float)

let compare_sorted a =
  let r = Array.copy a in
  Array.sort compare r;
  r

let sorts_like_compare a =
  let s = Array.copy a in
  Stats.sort s;
  Array.for_all2 Float.equal s (compare_sorted a)

(* [compare] ranks every NaN equal and -0.0 equal to 0.0, so how a sort
   orders them among themselves is its own choice, while [%h] tells them
   apart. The order statistics are therefore compared on samples that
   read every NaN as [nan] and -0.0 as 0.0. *)
let order_stats_like_compare a =
  let a = Array.map (fun x -> if Float.is_nan x then nan else if x = 0.0 then 0.0 else x) a in
  let t = Stats.create () in
  Array.iter (Stats.add t) a;
  let s = Stats.summary t in
  let r = compare_sorted a in
  let n = Array.length r in
  if n = 0 then s.Stats.count = 0
  else begin
    let pct q =
      let rank = q /. 100.0 *. float_of_int (n - 1) in
      let lo = int_of_float (Float.floor rank) and hi = int_of_float (Float.ceil rank) in
      if lo = hi then r.(lo) else r.(lo) +. ((rank -. float_of_int lo) *. (r.(hi) -. r.(lo)))
    in
    let qs = [ 0.0; 50.0; 95.0; 99.0; 100.0 ] in
    let h = List.map (Printf.sprintf "%h") in
    h ([ s.Stats.min; s.Stats.max; s.Stats.p50; s.Stats.p95; s.Stats.p99 ]
       @ List.map (Stats.percentile t) qs
       @ List.map (Stats.percentile_of a) qs)
    = h ([ r.(0); r.(n - 1); pct 50.0; pct 95.0; pct 99.0 ] @ List.map pct qs @ List.map pct qs)
  end

let prop_sort_like_compare =
  QCheck.Test.make ~name:"Stats.sort: Array.sort compare's order" ~count:200 small_arrays
    sorts_like_compare

let prop_order_stats_like_compare =
  QCheck.Test.make ~name:"Stats: summary and percentiles from the sorted order" ~count:200
    small_arrays order_stats_like_compare

let prop_sort_large =
  QCheck.Test.make ~name:"Stats.sort: 100,000 samples" ~count:1 large_array (fun a ->
      sorts_like_compare a && order_stats_like_compare a)

(* {1 Discrete distribution: sampling frequencies track weights} *)

let prop_discrete_frequencies =
  QCheck.Test.make ~name:"discrete: frequencies within 5% of weights" ~count:20
    QCheck.(list_of_size (Gen.int_range 2 6) (float_range 0.5 10.0))
    (fun weights ->
      let d = Ditto_util.Dist.discrete (List.mapi (fun i w -> (i, w)) weights) in
      let rng = Rng.create 11 in
      let n = 20000 in
      let counts = Array.make (List.length weights) 0 in
      for _ = 1 to n do
        let i = Ditto_util.Dist.discrete_sample d rng in
        counts.(i) <- counts.(i) + 1
      done;
      let total = List.fold_left ( +. ) 0.0 weights in
      List.for_all
        (fun (i, w) ->
          Float.abs ((float_of_int counts.(i) /. float_of_int n) -. (w /. total)) < 0.05)
        (List.mapi (fun i w -> (i, w)) weights))

(* {1 Block.reset_state restores the initial stream} *)

let prop_reset_state_restores =
  QCheck.Test.make ~name:"reset_state: replays the identical stream" ~count:50
    (QCheck.make pattern_gen)
    (fun mem ->
      let temp = Block.temp (Iform.by_name "MOV_GPR64_MEM") ~dst:0 ~srcs:[| 1 |] ~mem in
      Block.set_phase temp 5;
      let b = Block.make ~label:"p" ~code_base:0x9000 [ temp ] in
      let collect () =
        let out = ref [] in
        (* fixed rng seed: Rand_uniform consumes randomness deterministically *)
        Block.iter_stream ~rng:(Rng.create 3) ~iterations:50 b (fun ev ->
            out := ev.Block.ev_addr :: !out);
        List.rev !out
      in
      let first = collect () in
      Block.reset_state b;
      let second = collect () in
      first = second)

let () =
  Alcotest.run "properties"
    [
      ( "engine",
        [ qt prop_engine_causal; qt prop_resource_never_oversubscribed ] );
      ("jsonx", [ qt prop_json_roundtrip; qt prop_json_pretty_equiv ]);
      ("ks", [ qt prop_ks_bounds; qt prop_ks_self_zero; qt prop_ks_symmetric ]);
      ( "sort",
        [ qt prop_sort_like_compare; qt prop_order_stats_like_compare; qt prop_sort_large ] );
      ("tree_edit", [ qt prop_tree_edit_metric ]);
      ("working_set", [ qt prop_eq1_conserves_hits; qt prop_eq2_nonnegative ]);
      ("patterns", [ qt prop_resolve_within_region; qt prop_reset_state_restores ]);
      ("dist", [ qt prop_discrete_frequencies ]);
    ]
