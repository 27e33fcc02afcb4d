type region = { region_base : int; region_bytes : int; shared : bool }

let make_region ~base ~bytes ~shared =
  assert (base land 63 = 0);
  { region_base = base; region_bytes = bytes; shared }

type mem_pattern =
  | No_mem
  | Fixed_offset of { region : region; offset : int }
  | Seq_stride of { region : region; start : int; stride : int; span : int }
  | Rand_uniform of { region : region; start : int; span : int }
  | Chase of { region : region; start : int; span : int }

type branch_spec = { m : int; n : int; invert : bool }

(* Deterministic outcome sequence with taken fraction 2^-m and transition
   frequency 2^-n (clamped to 2^(1-m) when the rates are inconsistent).
   Within each period of 2^(n+1) executions the first 2^(n+1-m) are taken;
   when m > n+1 only one period in 2^(m-n-1) contains a single taken slot. *)
let branch_outcome ~m ~n k =
  let m = if m > 0 then m else 0 and n = if n > 0 then n else 0 in
  let period_bits = n + 1 in
  let in_period = k land ((1 lsl period_bits) - 1) in
  if m <= period_bits then in_period < 1 lsl (period_bits - m)
  else begin
    let j = k lsr period_bits in
    let skip = (1 lsl (m - period_bits)) - 1 in
    j land skip = 0 && in_period = 0
  end

type temp = {
  iform : Iform.t;
  dst : int;
  srcs : int array;
  mem : mem_pattern;
  branch : branch_spec option;
  rep_count : int;
  mutable branch_seq : int;
  mutable seq_pos : int;
  mutable seq_phase : int;
  mutable chase_cur : int;
}

let no_reg = -1
let num_regs = 32

(* The core model indexes its register scoreboard without bounds checks, so
   an operand outside [0, num_regs) must be refused here. *)
let check_reg what r =
  if r <> no_reg && (r < 0 || r >= num_regs) then
    invalid_arg (Printf.sprintf "Block.temp: %s register %d not in [0, %d)" what r num_regs)

let temp ?(dst = no_reg) ?(srcs = [||]) ?(mem = No_mem) ?branch ?(rep_count = 0) iform =
  check_reg "dst" dst;
  Array.iter (check_reg "src") srcs;
  {
    iform;
    dst;
    srcs;
    mem;
    branch;
    rep_count;
    branch_seq = 0;
    seq_pos = 0;
    seq_phase = 0;
    chase_cur = -1;
  }

let set_phase temp phase =
  temp.seq_phase <- phase;
  temp.seq_pos <- phase

type t = {
  uid : int;
  label : string;
  code_base : int;
  temps : temp array;
  addrs : int array;
  code_bytes : int;
  static_insts : int;
  decode : int array;
  occupancy : float array;
  pass_uops : int;
}

let d_new_line = 1
let d_store = 2
let d_lock = 4
let d_rep = 8
let d_cond = 16
let d_control = 32

let rep_chunks temp = max 1 (max 64 temp.rep_count / 64)

(* The class tests the core model makes per dynamic instruction, taken
   once per template. *)
let decode_temp ~starts_line temp =
  let open Iclass in
  let klass = temp.iform.Iform.klass in
  let bit b flag = if b then flag else 0 in
  bit starts_line d_new_line
  lor bit (is_memory_write klass && not (is_memory_read klass)) d_store
  lor bit (klass = Lock_rmw) d_lock
  lor bit (klass = Rep_string) d_rep
  lor bit (klass = Branch_cond) d_cond
  lor bit (is_control klass) d_control

(* Dividers are unpipelined: they hold their port for most of their
   latency. Every other iform frees it the next cycle. *)
let port_occupancy iform =
  match iform.Iform.klass with
  | Iclass.Int_div | Iclass.Float_div -> float_of_int iform.Iform.latency *. 0.6
  | _ -> 1.0

let uops_of temp =
  if temp.iform.Iform.klass = Iclass.Rep_string then 2 * rep_chunks temp else temp.iform.Iform.uops

(* Atomic: blocks are built concurrently by parallel clone/tune runs
   (Ditto_util.Pool); uids are identity keys only, so allocation order does
   not affect results, but duplicates would alias distinct blocks. *)
let next_uid = Atomic.make 0

let make ~label ~code_base temps =
  let temps = Array.of_list temps in
  let n = Array.length temps in
  let addrs = Array.make n 0 in
  let pc = ref code_base in
  Array.iteri
    (fun i t ->
      addrs.(i) <- !pc;
      pc := !pc + t.iform.Iform.bytes)
    temps;
  (* Template 0 follows the previous pass, or another block, so only the
     core can tell whether it starts a new fetch line: its flag is always
     set. *)
  let line k = addrs.(k) land lnot 63 in
  {
    uid = Atomic.fetch_and_add next_uid 1;
    label;
    code_base;
    temps;
    addrs;
    code_bytes = !pc - code_base;
    static_insts = n;
    decode =
      Array.mapi
        (fun k temp -> decode_temp ~starts_line:(k = 0 || line k <> line (k - 1)) temp)
        temps;
    occupancy = Array.map (fun temp -> port_occupancy temp.iform) temps;
    pass_uops = Array.fold_left (fun acc temp -> acc + uops_of temp) 0 temps;
  }

let reset_state t =
  Array.iter
    (fun temp ->
      temp.branch_seq <- 0;
      temp.seq_pos <- temp.seq_phase;
      temp.chase_cur <- -1)
    t.temps

let gp i =
  assert (i >= 0 && i < 16);
  i

let xmm i =
  assert (i >= 0 && i < 16);
  16 + i

(* Multiplicative hash onto a 64-byte-aligned slot of the window; constants
   from SplitMix64's finaliser so chains visit slots in a scattered order. *)
let chase_next region ~start ~span addr =
  let slots = if span > 64 then span / 64 else 1 in
  let h = (addr * 0x2545F4914F6CDD1D) land max_int in
  let slot = (h lsr 6) mod slots in
  region.region_base + start + (slot * 64)

(* [resolve_mem_packed] returns [(addr lsl 1) lor shared] so the
   per-instruction hot path of [Core_model.exec_block] gets address and
   sharedness without allocating a tuple; No_mem packs to -2 (addr -1,
   shared false). [resolve_mem] unpacks it for callers that want the pair. *)
let resolve_mem_packed ~rng temp =
  match temp.mem with
  | No_mem -> -2
  | Fixed_offset { region; offset } ->
      ((region.region_base + offset) lsl 1) lor Bool.to_int region.shared
  | Seq_stride { region; start; stride; span } ->
      let span = if span > 64 then span else 64 in
      let pos = temp.seq_pos in
      temp.seq_pos <- pos + 1;
      ((region.region_base + start + (pos * stride mod span)) lsl 1)
      lor Bool.to_int region.shared
  | Rand_uniform { region; start; span } ->
      let lines = if span > 64 then span / 64 else 1 in
      ((region.region_base + start + (64 * Ditto_util.Rng.int rng lines)) lsl 1)
      lor Bool.to_int region.shared
  | Chase { region; start; span } ->
      (* A chain is (re-)entered at a random node every [chain_len] hops, so
         distinct requests walk distinct but internally serialised chains. *)
      let chain_len = 64 in
      let cur =
        if temp.chase_cur < 0 || temp.seq_pos mod chain_len = 0 then
          let lines = if span > 64 then span / 64 else 1 in
          region.region_base + start + (64 * Ditto_util.Rng.int rng lines)
        else temp.chase_cur
      in
      temp.seq_pos <- temp.seq_pos + 1;
      let next = chase_next region ~start ~span cur in
      temp.chase_cur <- next;
      (cur lsl 1) lor Bool.to_int region.shared

let resolve_mem ~rng temp =
  let p = resolve_mem_packed ~rng temp in
  (p asr 1, p land 1 = 1)

type event = {
  ev_index : int;
  ev_pc : int;
  ev_temp : temp;
  ev_addr : int;
  ev_shared : bool;
  ev_taken : bool option;
  ev_iteration : int;
}

let iter_stream ~rng ~iterations t f =
  let ntemps = Array.length t.temps in
  for iteration = 0 to iterations - 1 do
    for k = 0 to ntemps - 1 do
      let temp = t.temps.(k) in
      let addr, shared = resolve_mem ~rng temp in
      let taken =
        match temp.branch with
        | Some spec ->
            let seq = temp.branch_seq in
            temp.branch_seq <- seq + 1;
            Some (branch_outcome ~m:spec.m ~n:spec.n seq <> spec.invert)
        | None -> None
      in
      f
        {
          ev_index = k;
          ev_pc = t.addrs.(k);
          ev_temp = temp;
          ev_addr = addr;
          ev_shared = shared;
          ev_taken = taken;
          ev_iteration = iteration;
        }
    done
  done
