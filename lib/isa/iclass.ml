type t =
  | Int_alu
  | Int_mul
  | Int_div
  | Lea
  | Shift
  | Cmov
  | Float_add
  | Float_mul
  | Float_div
  | Simd_int
  | Simd_float
  | Load
  | Store
  | Branch_cond
  | Branch_uncond
  | Call
  | Ret
  | Crc
  | Lock_rmw
  | Rep_string
  | Nop

let all =
  [
    Int_alu; Int_mul; Int_div; Lea; Shift; Cmov; Float_add; Float_mul; Float_div;
    Simd_int; Simd_float; Load; Store; Branch_cond; Branch_uncond; Call; Ret; Crc;
    Lock_rmw; Rep_string; Nop;
  ]

let to_string = function
  | Int_alu -> "int_alu"
  | Int_mul -> "int_mul"
  | Int_div -> "int_div"
  | Lea -> "lea"
  | Shift -> "shift"
  | Cmov -> "cmov"
  | Float_add -> "float_add"
  | Float_mul -> "float_mul"
  | Float_div -> "float_div"
  | Simd_int -> "simd_int"
  | Simd_float -> "simd_float"
  | Load -> "load"
  | Store -> "store"
  | Branch_cond -> "branch_cond"
  | Branch_uncond -> "branch_uncond"
  | Call -> "call"
  | Ret -> "ret"
  | Crc -> "crc"
  | Lock_rmw -> "lock_rmw"
  | Rep_string -> "rep_string"
  | Nop -> "nop"

let is_memory_read = function
  | Load | Lock_rmw | Rep_string -> true
  | Int_alu | Int_mul | Int_div | Lea | Shift | Cmov | Float_add | Float_mul
  | Float_div | Simd_int | Simd_float | Store | Branch_cond | Branch_uncond | Call
  | Ret | Crc | Nop ->
      false

let is_memory_write = function
  | Store | Lock_rmw | Rep_string -> true
  | Int_alu | Int_mul | Int_div | Lea | Shift | Cmov | Float_add | Float_mul
  | Float_div | Simd_int | Simd_float | Load | Branch_cond | Branch_uncond | Call
  | Ret | Crc | Nop ->
      false

let is_branch = function
  | Branch_cond | Branch_uncond -> true
  | Int_alu | Int_mul | Int_div | Lea | Shift | Cmov | Float_add | Float_mul
  | Float_div | Simd_int | Simd_float | Load | Store | Call | Ret | Crc | Lock_rmw
  | Rep_string | Nop ->
      false

let is_control = function
  | Branch_cond | Branch_uncond | Call | Ret -> true
  | Int_alu | Int_mul | Int_div | Lea | Shift | Cmov | Float_add | Float_mul
  | Float_div | Simd_int | Simd_float | Load | Store | Crc | Lock_rmw | Rep_string
  | Nop ->
      false

type operand_kind = Op_gpr | Op_x87 | Op_xmm | Op_mem | Op_imm | Op_none
