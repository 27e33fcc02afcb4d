type t = {
  id : int;
  name : string;
  klass : Iclass.t;
  uops : int;
  latency : int;
  ports : int;
  bytes : int;
  mem_width : int;
  operands : Iclass.operand_kind array;
}

(* Port bitmask constants; bit i = execution port i. Skylake-like layout:
   0,1,5,6 integer ALUs; 0,1 FP/SIMD; 1 slow-int (mul/crc); 0 divider;
   2,3 load AGUs; 4 store data; 6 branches. *)
let port_p0 = 0b0000_0001
let port_p1 = 0b0000_0010
let port_p5 = 0b0010_0000
let port_p6 = 0b0100_0000
let port_p06 = port_p0 lor port_p6
let port_p01 = port_p0 lor port_p1
let port_p015 = port_p01 lor port_p5
let port_p0156 = port_p015 lor port_p6
let port_load = 0b0000_1100
let port_store = 0b0001_0000
let port_count = 8

open Iclass

let specs =
  (* name, class, uops, latency, ports, bytes, mem_width, operands *)
  [|
    (* Data movement *)
    ("MOV_GPR64_GPR64", Int_alu, 1, 1, port_p0156, 3, 0, [| Op_gpr; Op_gpr |]);
    ("MOV_GPR64_IMM", Int_alu, 1, 1, port_p0156, 7, 0, [| Op_gpr; Op_imm |]);
    ("MOV_GPR64_MEM", Load, 1, 0, port_load, 4, 8, [| Op_gpr; Op_mem |]);
    ("MOV_GPR32_MEM", Load, 1, 0, port_load, 3, 4, [| Op_gpr; Op_mem |]);
    ("MOV_MEM_GPR64", Store, 1, 1, port_store, 4, 8, [| Op_mem; Op_gpr |]);
    ("MOV_MEM_GPR32", Store, 1, 1, port_store, 3, 4, [| Op_mem; Op_gpr |]);
    ("MOVZX_GPR64_MEM8", Load, 1, 0, port_load, 4, 1, [| Op_gpr; Op_mem |]);
    ("PUSH_GPR64", Store, 1, 1, port_store, 2, 8, [| Op_mem; Op_gpr |]);
    ("POP_GPR64", Load, 1, 0, port_load, 2, 8, [| Op_gpr; Op_mem |]);
    ("LEA_GPR64_AGEN", Lea, 1, 1, port_p015, 4, 0, [| Op_gpr; Op_mem |]);
    ("XCHG_GPR64_GPR64", Int_alu, 3, 2, port_p0156, 3, 0, [| Op_gpr; Op_gpr |]);
    (* Integer arithmetic / logic *)
    ("ADD_GPR64_GPR64", Int_alu, 1, 1, port_p0156, 3, 0, [| Op_gpr; Op_gpr |]);
    ("ADD_GPR64_IMM", Int_alu, 1, 1, port_p0156, 4, 0, [| Op_gpr; Op_imm |]);
    ("ADD_GPR64_MEM", Load, 2, 1, port_load lor port_p0156, 4, 8, [| Op_gpr; Op_mem |]);
    ("SUB_GPR64_GPR64", Int_alu, 1, 1, port_p0156, 3, 0, [| Op_gpr; Op_gpr |]);
    ("SUB_GPR64_MEM", Load, 2, 1, port_load lor port_p0156, 4, 8, [| Op_gpr; Op_mem |]);
    ("AND_GPR64_GPR64", Int_alu, 1, 1, port_p0156, 3, 0, [| Op_gpr; Op_gpr |]);
    ("OR_GPR64_GPR64", Int_alu, 1, 1, port_p0156, 3, 0, [| Op_gpr; Op_gpr |]);
    ("XOR_GPR64_GPR64", Int_alu, 1, 1, port_p0156, 3, 0, [| Op_gpr; Op_gpr |]);
    ("CMP_GPR64_GPR64", Int_alu, 1, 1, port_p0156, 3, 0, [| Op_gpr; Op_gpr |]);
    ("CMP_GPR64_IMM", Int_alu, 1, 1, port_p0156, 4, 0, [| Op_gpr; Op_imm |]);
    ("TEST_GPR64_IMM", Int_alu, 1, 1, port_p0156, 7, 0, [| Op_gpr; Op_imm |]);
    ("INC_GPR64", Int_alu, 1, 1, port_p0156, 3, 0, [| Op_gpr |]);
    ("IMUL_GPR64_GPR64", Int_mul, 1, 3, port_p1, 4, 0, [| Op_gpr; Op_gpr |]);
    ("IMUL_GPR64_MEM", Int_mul, 2, 3, port_p1 lor port_load, 4, 8, [| Op_gpr; Op_mem |]);
    ("MUL_MEM64", Int_mul, 3, 4, port_p1 lor port_load, 4, 8, [| Op_gpr; Op_mem |]);
    ("IDIV_GPR64", Int_div, 10, 26, port_p0, 3, 0, [| Op_gpr; Op_gpr |]);
    ("SHL_GPR64_IMM", Shift, 1, 1, port_p06, 4, 0, [| Op_gpr; Op_imm |]);
    ("SHR_GPR64_CL", Shift, 2, 2, port_p06, 3, 0, [| Op_gpr; Op_gpr |]);
    ("ROL_GPR64_IMM", Shift, 1, 1, port_p06, 4, 0, [| Op_gpr; Op_imm |]);
    ("CMOVZ_GPR64_GPR64", Cmov, 1, 1, port_p06, 4, 0, [| Op_gpr; Op_gpr |]);
    ("CRC32_GPR64_GPR64", Crc, 1, 3, port_p1, 5, 0, [| Op_gpr; Op_gpr |]);
    ("POPCNT_GPR64_GPR64", Crc, 1, 3, port_p1, 5, 0, [| Op_gpr; Op_gpr |]);
    (* Floating point (scalar SSE) *)
    ("ADDSD_XMM_XMM", Float_add, 1, 4, port_p01, 4, 0, [| Op_xmm; Op_xmm |]);
    ("SUBSD_XMM_XMM", Float_add, 1, 4, port_p01, 4, 0, [| Op_xmm; Op_xmm |]);
    ("MULSD_XMM_XMM", Float_mul, 1, 4, port_p01, 4, 0, [| Op_xmm; Op_xmm |]);
    ("DIVSD_XMM_XMM", Float_div, 1, 14, port_p0, 4, 0, [| Op_xmm; Op_xmm |]);
    ("SQRTSD_XMM_XMM", Float_div, 1, 18, port_p0, 4, 0, [| Op_xmm; Op_xmm |]);
    ("CVTSI2SD_XMM_GPR64", Float_add, 2, 6, port_p01, 5, 0, [| Op_xmm; Op_gpr |]);
    (* SIMD integer / float *)
    ("PADDD_XMM_XMM", Simd_int, 1, 1, port_p015, 4, 0, [| Op_xmm; Op_xmm |]);
    ("PAND_XMM_XMM", Simd_int, 1, 1, port_p015, 4, 0, [| Op_xmm; Op_xmm |]);
    ("PCMPEQB_XMM_XMM", Simd_int, 1, 1, port_p015, 4, 0, [| Op_xmm; Op_xmm |]);
    ("PMULLD_XMM_XMM", Simd_int, 2, 10, port_p01, 5, 0, [| Op_xmm; Op_xmm |]);
    ("PSHUFB_XMM_XMM", Simd_int, 1, 1, port_p5, 5, 0, [| Op_xmm; Op_xmm |]);
    ("ADDPS_XMM_XMM", Simd_float, 1, 4, port_p01, 4, 0, [| Op_xmm; Op_xmm |]);
    ("MULPS_XMM_XMM", Simd_float, 1, 4, port_p01, 4, 0, [| Op_xmm; Op_xmm |]);
    ("MOVDQU_XMM_MEM", Load, 1, 0, port_load, 5, 16, [| Op_xmm; Op_mem |]);
    ("MOVDQU_MEM_XMM", Store, 1, 1, port_store, 5, 16, [| Op_mem; Op_xmm |]);
    (* Control flow *)
    ("JZ_REL", Branch_cond, 1, 1, port_p6, 2, 0, [| Op_imm |]);
    ("JNZ_REL", Branch_cond, 1, 1, port_p6, 2, 0, [| Op_imm |]);
    ("JL_REL", Branch_cond, 1, 1, port_p6, 2, 0, [| Op_imm |]);
    ("JMP_REL", Branch_uncond, 1, 1, port_p6, 2, 0, [| Op_imm |]);
    ("CALL_REL", Call, 2, 2, port_p6 lor port_store, 5, 8, [| Op_imm |]);
    ("RET_NEAR", Ret, 2, 2, port_p6 lor port_load, 1, 8, [| Op_none |]);
    (* Atomics and string ops *)
    ("LOCK_ADD_MEM_GPR64", Lock_rmw, 8, 20, port_p0156 lor port_load lor port_store, 5, 8,
     [| Op_mem; Op_gpr |]);
    ("LOCK_CMPXCHG_MEM_GPR64", Lock_rmw, 10, 22, port_p0156 lor port_load lor port_store, 6, 8,
     [| Op_mem; Op_gpr |]);
    ("XADD_LOCK_MEM_GPR64", Lock_rmw, 9, 21, port_p0156 lor port_load lor port_store, 5, 8,
     [| Op_mem; Op_gpr |]);
    ("REP_MOVSB", Rep_string, 2, 3, port_load lor port_store lor port_p0156, 2, 16,
     [| Op_mem; Op_mem |]);
    ("REP_STOSB", Rep_string, 2, 3, port_store lor port_p0156, 2, 16, [| Op_mem; Op_imm |]);
    (* Misc *)
    ("NOP", Nop, 1, 0, port_p0156, 1, 0, [| Op_none |]);
    ("PAUSE", Nop, 4, 10, port_p0156, 2, 0, [| Op_none |]);
  |]

let catalog =
  Array.mapi
    (fun id (name, klass, uops, latency, ports, bytes, mem_width, operands) ->
      { id; name; klass; uops; latency; ports; bytes; mem_width; operands })
    specs

let count = Array.length catalog

let name_index =
  let tbl = Hashtbl.create 64 in
  Array.iter (fun f -> Hashtbl.add tbl f.name f) catalog;
  tbl

let by_name n = match Hashtbl.find_opt name_index n with Some f -> f | None -> raise Not_found
let of_id i = catalog.(i)

(* Feature vector: one-hot over five paper-level functionality groups,
   operand-kind indicators, port-usage indicators, plus scaled latency and
   uop count. *)
let functionality_group f =
  match f.klass with
  | Load | Store | Lea | Nop -> 0 (* data movement *)
  | Int_alu | Int_mul | Int_div | Shift | Cmov | Float_add | Float_mul | Float_div
  | Simd_int | Simd_float | Crc ->
      1 (* arithmetic/logic *)
  | Branch_cond | Branch_uncond | Call | Ret -> 2 (* control flow *)
  | Lock_rmw -> 3
  | Rep_string -> 4

let features f =
  let v = Array.make 18 0.0 in
  v.(functionality_group f) <- 1.0;
  let has kind = Array.exists (fun o -> o = kind) f.operands in
  if has Iclass.Op_gpr then v.(5) <- 1.0;
  if has Iclass.Op_x87 then v.(6) <- 1.0;
  if has Iclass.Op_xmm then v.(7) <- 1.0;
  if has Iclass.Op_mem then v.(8) <- 1.0;
  for p = 0 to port_count - 1 do
    if f.ports land (1 lsl p) <> 0 then v.(9 + p) <- 0.5
  done;
  v.(17) <- Float.min 2.0 (float_of_int f.latency /. 10.0);
  v

let feature_distance a b =
  let fa = features a and fb = features b in
  let acc = ref 0.0 in
  Array.iteri (fun i x -> acc := !acc +. ((x -. fb.(i)) ** 2.0)) fa;
  sqrt !acc

let filter_class pred = Array.to_list catalog |> List.filter (fun f -> pred f.klass)
let loads = filter_class (fun k -> k = Load)
let stores = filter_class (fun k -> k = Store)
let branches = filter_class Iclass.is_branch
