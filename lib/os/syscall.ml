open Ditto_isa

type kind =
  | Pread of { bytes : int; random : bool }
  | Pwrite of { bytes : int }
  | Sock_read of { bytes : int }
  | Sock_write of { bytes : int }
  | Epoll_wait
  | Accept
  | Futex_wait
  | Futex_wake
  | Mmap of { bytes : int }
  | Clone
  | Nanosleep of { seconds : float }
  | Gettime

let name = function
  | Pread _ -> "pread"
  | Pwrite _ -> "pwrite"
  | Sock_read _ -> "sock_read"
  | Sock_write _ -> "sock_write"
  | Epoll_wait -> "epoll_wait"
  | Accept -> "accept"
  | Futex_wait -> "futex_wait"
  | Futex_wake -> "futex_wake"
  | Mmap _ -> "mmap"
  | Clone -> "clone"
  | Nanosleep _ -> "nanosleep"
  | Gettime -> "gettime"

let payload_bytes = function
  | Pread { bytes; _ } | Pwrite { bytes } | Sock_read { bytes } | Sock_write { bytes }
  | Mmap { bytes } ->
      bytes
  | Epoll_wait | Accept | Futex_wait | Futex_wake | Clone | Nanosleep _ | Gettime -> 0

(* (index, nominal path length, code footprint bytes). Path lengths follow
   published syscall microbenchmarks in relative magnitude: network sends
   are the longest hot paths, clock reads the shortest. *)
let profile = function
  | Pread _ -> (0, 3000, 24 * 1024)
  | Pwrite _ -> (1, 3500, 24 * 1024)
  | Sock_read _ -> (2, 4000, 32 * 1024)
  | Sock_write _ -> (3, 5000, 40 * 1024)
  | Epoll_wait -> (4, 1500, 12 * 1024)
  | Accept -> (5, 4000, 24 * 1024)
  | Futex_wait -> (6, 800, 6 * 1024)
  | Futex_wake -> (7, 800, 6 * 1024)
  | Mmap _ -> (8, 2500, 16 * 1024)
  | Clone -> (9, 8000, 48 * 1024)
  | Nanosleep _ -> (10, 600, 6 * 1024)
  | Gettime -> (11, 200, 2 * 1024)

let path_insts k =
  let _, n, _ = profile k in
  n

let is_blocking = function
  | Epoll_wait | Accept | Futex_wait | Nanosleep _ -> true
  | Pread _ | Pwrite _ | Sock_read _ | Sock_write _ | Futex_wake | Mmap _ | Clone | Gettime
    ->
      false

module Kernel = struct
  let code_base = 0x0100_0000
  let code_stride = 0x0002_0000
  let data_base = 0x0400_0000
  let data_stride = 0x0001_0000
  let copy_base = 0x0600_0000

  let copy_region = Block.make_region ~base:copy_base ~bytes:(1 lsl 20) ~shared:false

  (* Synthesizes a kernel code block: branch-heavy, load/store-rich over a
     per-syscall kernel data window, with occasional atomics — the flavour
     of kernel hot paths that makes cloud services frontend-bound. *)
  let build_path_block ~label ~idx ~footprint_bytes ~insts =
    let rng = Ditto_util.Rng.create (0x05 + idx) in
    let data =
      Block.make_region ~base:(data_base + (idx * data_stride)) ~bytes:data_stride
        ~shared:false
    in
    let n_templates = max 8 (min insts (footprint_bytes * 2 / 7)) in
    let temps =
      List.init n_templates (fun i ->
          let r = Ditto_util.Rng.int rng 100 in
          let reg a = Block.gp (a mod 8) in
          if r < 38 then
            Block.temp
              (Iform.by_name "ADD_GPR64_GPR64")
              ~dst:(reg i) ~srcs:[| reg i; reg (i + 1) |]
          else if r < 52 then
            let span = 1 lsl (9 + Ditto_util.Rng.int rng 7) in
            Block.temp (Iform.by_name "MOV_GPR64_MEM") ~dst:(reg i)
              ~srcs:[| reg (i + 2) |]
              ~mem:
                (Block.Rand_uniform
                   { region = data; start = 0; span = min span data.Block.region_bytes })
          else if r < 62 then
            Block.temp (Iform.by_name "MOV_MEM_GPR64")
              ~srcs:[| reg i |]
              ~mem:
                (Block.Seq_stride { region = data; start = 0; stride = 64; span = 16384 })
          else if r < 78 then
            Block.temp (Iform.by_name "JNZ_REL")
              ~branch:
                {
                  Block.m = 2 + Ditto_util.Rng.int rng 6;
                  n = 3 + Ditto_util.Rng.int rng 5;
                  invert = Ditto_util.Rng.bool rng;
                }
          else if r < 86 then
            Block.temp (Iform.by_name "CMP_GPR64_GPR64") ~srcs:[| reg i; reg (i + 3) |]
          else if r < 90 then
            Block.temp (Iform.by_name "LEA_GPR64_AGEN") ~dst:(reg i) ~srcs:[| reg (i + 1) |]
          else if r < 93 then
            Block.temp
              (Iform.by_name "LOCK_ADD_MEM_GPR64")
              ~srcs:[| reg i |]
              ~mem:(Block.Fixed_offset { region = data; offset = 64 * (i mod 32) })
          else if r < 97 then
            Block.temp (Iform.by_name "SHL_GPR64_IMM") ~dst:(reg i) ~srcs:[| reg i |]
          else Block.temp (Iform.by_name "MOV_GPR64_IMM") ~dst:(reg i))
    in
    Block.make ~label ~code_base:(code_base + (idx * code_stride)) temps

  let copy_block ~bytes =
    Block.make ~label:"kernel_copy" ~code_base:(code_base + (14 * code_stride))
      [
        Block.temp (Iform.by_name "REP_MOVSB") ~rep_count:bytes
          ~srcs:[| Block.gp 6 |]
          ~mem:(Block.Seq_stride { region = copy_region; start = 0; stride = 64; span = 65536 });
      ]

  let bucket bytes = if bytes <= 0 then 0 else Ditto_util.Histogram.log2_bin bytes

  (* Kernel path blocks carry mutable stream cursors, so the memo tables
     are domain-local: each domain builds (deterministically) and mutates
     its own copies, keeping parallel runs (Ditto_util.Pool) from racing on
     shared cursor state. Within a domain the usual touch-reset in
     Measure keeps sequential runs reproducible. *)
  let memo_key : (int, (Block.t * int) list) Hashtbl.t Domain.DLS.key =
    Domain.DLS.new_key (fun () -> Hashtbl.create 64)

  (* Kernel paths run at a quarter of their nominal length and footprint,
     for fast simulation. *)
  let scale = 0.25

  let streams kind =
    let memo = Domain.DLS.get memo_key in
    let idx, insts, footprint = profile kind in
    let bytes = payload_bytes kind in
    (* Packed int key: [idx] is unique per syscall kind and the payload
       bucket is a log2 bin (< 2^8). [streams] runs once per simulated
       syscall, so formatting a string key here cost an allocation and a
       string hash on the hottest kernel path. *)
    let key = (idx lsl 8) lor bucket bytes in
    match Hashtbl.find_opt memo key with
    | Some s -> s
    | None ->
        let scaled_insts = max 32 (int_of_float (float_of_int insts *. scale)) in
        let scaled_footprint = max 512 (int_of_float (float_of_int footprint *. scale)) in
        let path = build_path_block ~label:(name kind) ~idx ~footprint_bytes:scaled_footprint ~insts:scaled_insts in
        let iters = max 1 (scaled_insts / max 1 path.Block.static_insts) in
        let s =
          if bytes > 0 then [ (path, iters); (copy_block ~bytes, 1) ] else [ (path, iters) ]
        in
        Hashtbl.add memo key s;
        s

  (* Built on a domain's first call, like a [streams] entry. *)
  let housekeeping_key : (Block.t * int) Domain.DLS.key =
    Domain.DLS.new_key (fun () ->
        let insts = max 64 (int_of_float (2000. *. scale)) in
        let block =
          build_path_block ~label:"housekeeping" ~idx:13
            ~footprint_bytes:(max 1024 (int_of_float (32_768. *. scale)))
            ~insts
        in
        (block, max 1 (insts / max 1 block.Block.static_insts)))

  let housekeeping () = Domain.DLS.get housekeeping_key
end
