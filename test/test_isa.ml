(* Tests for the ISA layer: iform catalog invariants, block construction,
   bitmask branch sequences, memory-pattern resolution. *)
open Ditto_isa
module Rng = Ditto_util.Rng

let check_close msg tolerance expected actual =
  if Float.abs (expected -. actual) > tolerance then
    Alcotest.failf "%s: expected %g within %g, got %g" msg expected tolerance actual

(* {1 Iform catalog} *)

let test_catalog_ids_dense () =
  Array.iteri
    (fun i f -> Alcotest.(check int) ("id of " ^ f.Iform.name) i f.Iform.id)
    Iform.catalog

let test_catalog_unique_names () =
  let names = Array.to_list (Array.map (fun f -> f.Iform.name) Iform.catalog) in
  Alcotest.(check int) "no duplicate names"
    (List.length names)
    (List.length (List.sort_uniq compare names))

let test_catalog_sane_fields () =
  Array.iter
    (fun f ->
      Alcotest.(check bool) (f.Iform.name ^ " uops > 0") true (f.Iform.uops > 0);
      Alcotest.(check bool) (f.Iform.name ^ " bytes > 0") true (f.Iform.bytes > 0);
      Alcotest.(check bool) (f.Iform.name ^ " has a port") true (f.Iform.ports <> 0);
      Alcotest.(check bool) (f.Iform.name ^ " latency >= 0") true (f.Iform.latency >= 0))
    Iform.catalog

let test_memory_iforms_have_width () =
  List.iter
    (fun (f : Iform.t) ->
      Alcotest.(check bool) (f.Iform.name ^ " load width") true (f.Iform.mem_width > 0))
    Iform.loads;
  List.iter
    (fun (f : Iform.t) ->
      Alcotest.(check bool) (f.Iform.name ^ " store width") true (f.Iform.mem_width > 0))
    Iform.stores

let test_by_name () =
  let f = Iform.by_name "ADD_GPR64_GPR64" in
  Alcotest.(check bool) "class" true (f.Iform.klass = Iclass.Int_alu);
  Alcotest.check_raises "unknown" Not_found (fun () -> ignore (Iform.by_name "BOGUS"))

let test_branch_iforms_on_port6 () =
  List.iter
    (fun (f : Iform.t) ->
      Alcotest.(check bool) (f.Iform.name ^ " uses p6") true
        (f.Iform.ports land Iform.port_p6 <> 0))
    Iform.branches

let test_feature_distance_metric () =
  let a = Iform.by_name "ADD_GPR64_GPR64"
  and b = Iform.by_name "SUB_GPR64_GPR64"
  and c = Iform.by_name "DIVSD_XMM_XMM" in
  Alcotest.(check (float 1e-9)) "self distance" 0.0 (Iform.feature_distance a a);
  Alcotest.(check bool) "symmetry" true
    (Iform.feature_distance a c = Iform.feature_distance c a);
  Alcotest.(check bool) "similar closer than different" true
    (Iform.feature_distance a b < Iform.feature_distance a c)

let test_iclass_predicates () =
  Alcotest.(check bool) "load reads" true (Iclass.is_memory_read Iclass.Load);
  Alcotest.(check bool) "store writes" true (Iclass.is_memory_write Iclass.Store);
  Alcotest.(check bool) "lock both" true
    (Iclass.is_memory_read Iclass.Lock_rmw && Iclass.is_memory_write Iclass.Lock_rmw);
  Alcotest.(check bool) "branch" true (Iclass.is_branch Iclass.Branch_cond);
  Alcotest.(check bool) "call is control not branch" true
    (Iclass.is_control Iclass.Call && not (Iclass.is_branch Iclass.Call));
  Alcotest.(check int) "all classes listed" 21 (List.length Iclass.all)

(* {1 Blocks} *)

let region = Block.make_region ~base:0x1000_0000 ~bytes:(1 lsl 20) ~shared:false

let test_block_addresses () =
  let t1 = Block.temp (Iform.by_name "ADD_GPR64_GPR64") ~dst:0 ~srcs:[| 1 |] in
  let t2 = Block.temp (Iform.by_name "MOV_GPR64_IMM") ~dst:2 in
  let b = Block.make ~label:"t" ~code_base:0x4000 [ t1; t2 ] in
  Alcotest.(check int) "first addr" 0x4000 b.Block.addrs.(0);
  Alcotest.(check int) "second addr offset by size" (0x4000 + 3) b.Block.addrs.(1);
  Alcotest.(check int) "code bytes"
    (t1.Block.iform.Iform.bytes + t2.Block.iform.Iform.bytes)
    b.Block.code_bytes;
  Alcotest.(check int) "static insts" 2 b.Block.static_insts

let test_region_alignment () =
  let raised =
    try
      ignore (Block.make_region ~base:0x1001 ~bytes:64 ~shared:false);
      false
    with Assert_failure _ -> true
  in
  Alcotest.(check bool) "unaligned base rejected" true raised

(* The core model indexes its register scoreboard unchecked, so the
   template constructor is where an out-of-range operand must stop. *)
let test_temp_rejects_bad_registers () =
  let add = Iform.by_name "ADD_GPR64_GPR64" in
  let rejected f =
    match f () with
    | (_ : Block.temp) -> false
    | exception Invalid_argument _ -> true
  in
  Alcotest.(check bool) "dst past num_regs" true (rejected (fun () -> Block.temp add ~dst:40));
  Alcotest.(check bool) "dst = num_regs" true
    (rejected (fun () -> Block.temp add ~dst:Block.num_regs));
  Alcotest.(check bool) "negative src" true
    (rejected (fun () -> Block.temp add ~dst:0 ~srcs:[| 1; -2 |]));
  Alcotest.(check bool) "src past num_regs" true
    (rejected (fun () -> Block.temp add ~srcs:[| Block.num_regs + 3 |]));
  Alcotest.(check bool) "edge registers and no_reg accepted" false
    (rejected (fun () ->
         Block.temp add ~dst:(Block.num_regs - 1) ~srcs:[| 0; Block.no_reg; Block.xmm 15 |]))

(* {1 Branch outcome sequences (the bitmask idiom)} *)

let measure_rates ~m ~n count =
  let taken = ref 0 and transitions = ref 0 and last = ref None in
  for k = 0 to count - 1 do
    let t = Block.branch_outcome ~m ~n k in
    if t then incr taken;
    (match !last with Some p when p <> t -> incr transitions | _ -> ());
    last := Some t
  done;
  (float_of_int !taken /. float_of_int count, float_of_int !transitions /. float_of_int count)

let test_branch_rates_exact () =
  List.iter
    (fun (m, n) ->
      let taken, trans = measure_rates ~m ~n 65536 in
      check_close (Printf.sprintf "taken m=%d n=%d" m n) 0.01 (2.0 ** float_of_int (-m)) taken;
      let expected_trans =
        if m = 0 then 0.0 (* constant direction: no transitions *)
        else Float.min (2.0 ** float_of_int (-n)) (2.0 ** float_of_int (1 - m))
      in
      check_close (Printf.sprintf "transition m=%d n=%d" m n) 0.01 expected_trans trans)
    [ (1, 1); (1, 4); (2, 3); (3, 5); (5, 2); (0, 3); (4, 8) ]

let prop_branch_taken_rate =
  QCheck.Test.make ~name:"taken rate ~ 2^-m" ~count:60
    QCheck.(pair (int_range 0 8) (int_range 0 8))
    (fun (m, n) ->
      let taken, _ = measure_rates ~m ~n 65536 in
      Float.abs (taken -. (2.0 ** float_of_int (-m))) < 0.02)

let test_branch_deterministic () =
  for k = 0 to 100 do
    Alcotest.(check bool) "pure function" (Block.branch_outcome ~m:2 ~n:3 k)
      (Block.branch_outcome ~m:2 ~n:3 k)
  done

(* {1 Memory pattern resolution} *)

let resolve temp rng = Block.resolve_mem ~rng temp

let test_fixed_offset () =
  let t =
    Block.temp (Iform.by_name "MOV_GPR64_MEM") ~dst:0 ~srcs:[| 1 |]
      ~mem:(Block.Fixed_offset { region; offset = 256 })
  in
  let rng = Rng.create 1 in
  let a1, sh = resolve t rng in
  let a2, _ = resolve t rng in
  Alcotest.(check int) "fixed" (0x1000_0000 + 256) a1;
  Alcotest.(check int) "stable" a1 a2;
  Alcotest.(check bool) "not shared" false sh

let test_no_mem () =
  let t = Block.temp (Iform.by_name "ADD_GPR64_GPR64") ~dst:0 ~srcs:[| 1 |] in
  let rng = Rng.create 1 in
  Alcotest.(check (pair int bool)) "none" (-1, false) (resolve t rng)

let test_seq_stride_advances_and_wraps () =
  let t =
    Block.temp (Iform.by_name "MOV_GPR64_MEM") ~dst:0 ~srcs:[| 1 |]
      ~mem:(Block.Seq_stride { region; start = 0; stride = 64; span = 192 })
  in
  let rng = Rng.create 1 in
  let base = region.Block.region_base in
  Alcotest.(check int) "pos 0" base (fst (resolve t rng));
  Alcotest.(check int) "pos 1" (base + 64) (fst (resolve t rng));
  Alcotest.(check int) "pos 2" (base + 128) (fst (resolve t rng));
  Alcotest.(check int) "wraps" base (fst (resolve t rng))

let test_rand_uniform_within_span () =
  let t =
    Block.temp (Iform.by_name "MOV_GPR64_MEM") ~dst:0 ~srcs:[| 1 |]
      ~mem:(Block.Rand_uniform { region; start = 4096; span = 8192 })
  in
  let rng = Rng.create 2 in
  for _ = 1 to 500 do
    let a, _ = resolve t rng in
    Alcotest.(check bool) "within window" true
      (a >= region.Block.region_base + 4096 && a < region.Block.region_base + 4096 + 8192);
    Alcotest.(check int) "line aligned" 0 (a land 63)
  done

let test_chase_serial_and_bounded () =
  let t =
    Block.temp (Iform.by_name "MOV_GPR64_MEM") ~dst:11 ~srcs:[| 11 |]
      ~mem:(Block.Chase { region; start = 0; span = 65536 })
  in
  let rng = Rng.create 3 in
  let seen = Hashtbl.create 64 in
  for _ = 1 to 200 do
    let a, _ = resolve t rng in
    Alcotest.(check bool) "in window" true
      (a >= region.Block.region_base && a < region.Block.region_base + 65536);
    Hashtbl.replace seen a ()
  done;
  Alcotest.(check bool) "chain visits many lines" true (Hashtbl.length seen > 32)

let test_shared_region_flag () =
  let shared = Block.make_region ~base:0x2000_0000 ~bytes:4096 ~shared:true in
  let t =
    Block.temp (Iform.by_name "MOV_MEM_GPR64") ~srcs:[| 1 |]
      ~mem:(Block.Fixed_offset { region = shared; offset = 0 })
  in
  let rng = Rng.create 4 in
  Alcotest.(check bool) "shared propagated" true (snd (resolve t rng))

(* {1 iter_stream} *)

let test_iter_stream_counts () =
  let temps =
    [
      Block.temp (Iform.by_name "ADD_GPR64_GPR64") ~dst:0 ~srcs:[| 1 |];
      Block.temp (Iform.by_name "JNZ_REL") ~branch:{ Block.m = 1; n = 2; invert = false };
    ]
  in
  let b = Block.make ~label:"s" ~code_base:0x8000 temps in
  let events = ref 0 and branches = ref 0 in
  Block.iter_stream ~rng:(Rng.create 5) ~iterations:10 b (fun ev ->
      incr events;
      if ev.Block.ev_taken <> None then incr branches);
  Alcotest.(check int) "2 insts x 10 iters" 20 !events;
  Alcotest.(check int) "10 branch events" 10 !branches

let test_iter_stream_matches_outcome () =
  (* The streamed outcomes continue the template's persistent sequence. *)
  let t = Block.temp (Iform.by_name "JZ_REL") ~branch:{ Block.m = 2; n = 2; invert = false } in
  let b = Block.make ~label:"b" ~code_base:0x9000 [ t ] in
  let taken = ref 0 in
  Block.iter_stream ~rng:(Rng.create 6) ~iterations:4096 b (fun ev ->
      if ev.Block.ev_taken = Some true then incr taken);
  check_close "rate 2^-2" 0.02 0.25 (float_of_int !taken /. 4096.0)

let qt = QCheck_alcotest.to_alcotest

let () =
  Alcotest.run "isa"
    [
      ( "iform",
        [
          Alcotest.test_case "dense ids" `Quick test_catalog_ids_dense;
          Alcotest.test_case "unique names" `Quick test_catalog_unique_names;
          Alcotest.test_case "sane fields" `Quick test_catalog_sane_fields;
          Alcotest.test_case "memory widths" `Quick test_memory_iforms_have_width;
          Alcotest.test_case "by_name" `Quick test_by_name;
          Alcotest.test_case "branches on p6" `Quick test_branch_iforms_on_port6;
          Alcotest.test_case "feature distance" `Quick test_feature_distance_metric;
          Alcotest.test_case "iclass predicates" `Quick test_iclass_predicates;
        ] );
      ( "block",
        [
          Alcotest.test_case "addresses" `Quick test_block_addresses;
          Alcotest.test_case "region alignment" `Quick test_region_alignment;
          Alcotest.test_case "temp rejects bad registers" `Quick test_temp_rejects_bad_registers;
        ] );
      ( "branch_outcome",
        [
          Alcotest.test_case "exact rates" `Quick test_branch_rates_exact;
          Alcotest.test_case "deterministic" `Quick test_branch_deterministic;
          qt prop_branch_taken_rate;
        ] );
      ( "resolve_mem",
        [
          Alcotest.test_case "fixed offset" `Quick test_fixed_offset;
          Alcotest.test_case "no mem" `Quick test_no_mem;
          Alcotest.test_case "seq stride" `Quick test_seq_stride_advances_and_wraps;
          Alcotest.test_case "rand uniform" `Quick test_rand_uniform_within_span;
          Alcotest.test_case "chase" `Quick test_chase_serial_and_bounded;
          Alcotest.test_case "shared flag" `Quick test_shared_region_flag;
        ] );
      ( "iter_stream",
        [
          Alcotest.test_case "counts" `Quick test_iter_stream_counts;
          Alcotest.test_case "branch rates" `Quick test_iter_stream_matches_outcome;
        ] );
    ]
