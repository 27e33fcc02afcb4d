open Ditto_isa

(* The per-core float state lives in its own all-float record, stored flat
   like [Counters.slots]: the per-instruction updates in [exec_block] are
   raw double stores, with no box allocation and no [caml_modify]. *)
type clock = {
  mutable next_issue : float;
  mutable fetch_avail : float;
  mutable resteer_until : float;
  mutable max_done : float;
  mutable last_lock_done : float;
  mutable width_factor : float;
  (* What the execute stage hands back to the rest of [exec_block] for the
     current instruction: when the next one may issue and when this one
     completes. Written by [exec_rep_string] and the memory branch instead
     of returning a tuple. *)
  mutable issue_after : float;
  mutable done_t : float;
}

type t = {
  mem : Memory.t;
  plat : Platform.t;
  core : int;
  bp : Branch_pred.t;
  reg_ready : float array;
  port_free : float array;
  rob : float array;
  mutable rob_pos : int;
  mshr : float array;
  c : clock;
  mutable last_fetch_line : int;
  (* Whether any block executed since the last [reset]; untouched cores
     skip the (large) predictor/ROB array fills on reset. *)
  mutable used : bool;
}

let create mem ~core =
  let plat = Memory.platform mem in
  {
    mem;
    plat;
    core;
    bp =
      Branch_pred.create ~entries:plat.Platform.predictor_entries
        ~btb_entries:plat.Platform.btb_entries ();
    reg_ready = Array.make Block.num_regs 0.0;
    port_free = Array.make Iform.port_count 0.0;
    rob = Array.make plat.Platform.rob_size 0.0;
    rob_pos = 0;
    mshr = Array.make 10 0.0;
    c =
      {
        next_issue = 0.0;
        fetch_avail = 0.0;
        resteer_until = 0.0;
        max_done = 0.0;
        last_lock_done = 0.0;
        width_factor = 1.0;
        issue_after = 0.0;
        done_t = 0.0;
      };
    last_fetch_line = -1;
    used = false;
  }

(* Restore the pristine post-[create] state. Kept bit-identical to a fresh
   core: every mutable field and array returns to its initial value, so a
   recycled core (see [Ditto_app.Machine]) measures exactly like a new one. *)
let reset t =
  if t.used then begin
    Array.fill t.reg_ready 0 (Array.length t.reg_ready) 0.0;
    Array.fill t.port_free 0 (Array.length t.port_free) 0.0;
    Array.fill t.rob 0 (Array.length t.rob) 0.0;
    Array.fill t.mshr 0 (Array.length t.mshr) 0.0;
    Branch_pred.flush t.bp;
    t.used <- false
  end;
  t.rob_pos <- 0;
  let c = t.c in
  c.next_issue <- 0.0;
  c.fetch_avail <- 0.0;
  c.resteer_until <- 0.0;
  c.max_done <- 0.0;
  c.last_lock_done <- 0.0;
  c.width_factor <- 1.0;
  c.issue_after <- 0.0;
  c.done_t <- 0.0;
  t.last_fetch_line <- -1

let counters t = Memory.counters t.mem t.core
let platform t = t.plat
let set_width_factor t f = t.c.width_factor <- Float.max 0.1 f

(* Branchy float max/min for the hot loop: [Stdlib.Float.max] handles NaN
   and signed zeros (via [signbit]) that simulated timestamps — finite,
   non-negative, never produced as [-0.] — cannot exhibit, so these are
   value-identical here and compile to a compare and a move. *)
let[@inline] fmax (a : float) (b : float) = if a > b then a else b
let[@inline] fmin (a : float) (b : float) = if a < b then a else b
let now t = fmax t.c.next_issue t.c.max_done
let drain t = t.c.next_issue <- now t

let effective_width t = float_of_int t.plat.Platform.issue_width *. t.c.width_factor

let choose_port t mask =
  let best = ref 0 and best_t = ref infinity in
  for p = 0 to Iform.port_count - 1 do
    if mask land (1 lsl p) <> 0 && Array.unsafe_get t.port_free p < !best_t then begin
      best_t := Array.unsafe_get t.port_free p;
      best := p
    end
  done;
  !best

(* Off-core misses contend for a finite set of miss-status registers,
   bounding memory-level parallelism. Returns the adjusted start time. *)
let mshr_admit t start latency =
  let best = ref 0 and best_t = ref infinity in
  for i = 0 to Array.length t.mshr - 1 do
    if Array.unsafe_get t.mshr i < !best_t then begin
      best_t := Array.unsafe_get t.mshr i;
      best := i
    end
  done;
  let start = fmax start !best_t in
  Array.unsafe_set t.mshr !best (start +. latency);
  start

let exec_rep_string t ~width addr shared ~write_only ~count start =
  let ctr = Memory.counters t.mem t.core in
  let cs = ctr.Counters.s in
  let chunks = max 1 (count / Cache.line_bytes) in
  let issue = ref start and done_t = ref start in
  for i = 0 to chunks - 1 do
    let a = addr + (Cache.line_bytes * i) in
    let rl =
      if write_only then 1
      else Memory.access_data t.mem ~core:t.core ~addr:a ~write:false ~shared
    in
    ignore (Memory.access_data t.mem ~core:t.core ~addr:(a + 0x40000) ~write:true ~shared:false);
    done_t := fmax !done_t (!issue +. float_of_int rl);
    issue := !issue +. (2.0 /. width);
    cs.Counters.retiring <- cs.Counters.retiring +. 2.0;
    ctr.Counters.uops <- ctr.Counters.uops + 2
  done;
  t.c.issue_after <- !issue;
  t.c.done_t <- !done_t

let exec_block t ~rng (block : Block.t) ~iterations =
  t.used <- true;
  let width = effective_width t in
  let plat = t.plat in
  let c = t.c in
  let ctr = Memory.counters t.mem t.core in
  let cs = ctr.Counters.s in
  let rob_len = Array.length t.rob in
  let ntemps = Array.length block.Block.temps in
  let before = now t in
  for _iteration = 0 to iterations - 1 do
    for k = 0 to ntemps - 1 do
      let temp = Array.unsafe_get block.Block.temps k in
      let iform = temp.Block.iform in
      let pc = Array.unsafe_get block.Block.addrs k in
      let base = c.next_issue in
      (* Instruction fetch: one i-cache access per new line. *)
      let line = pc land lnot (Cache.line_bytes - 1) in
      if line <> t.last_fetch_line then begin
        t.last_fetch_line <- line;
        let bubble = Memory.access_inst t.mem ~core:t.core ~addr:pc in
        if bubble > 0 then c.fetch_avail <- fmax c.fetch_avail base +. float_of_int bubble
      end;
      let f = fmax base c.fetch_avail in
      (* Attribute the fetch gap: resteer shadow counts as bad speculation. *)
      let gap = f -. base in
      if gap > 0.0 then begin
        let bad = fmax 0.0 (fmin f c.resteer_until -. base) in
        cs.Counters.bad_spec <- cs.Counters.bad_spec +. (bad *. width);
        cs.Counters.frontend <- cs.Counters.frontend +. ((gap -. bad) *. width)
      end;
      (* Register dependencies. *)
      let ready = ref f in
      let srcs = temp.Block.srcs in
      for s = 0 to Array.length srcs - 1 do
        let r = Array.unsafe_get srcs s in
        (* Registers are validated at template construction (< num_regs). *)
        if r >= 0 && Array.unsafe_get t.reg_ready r > !ready then
          ready := Array.unsafe_get t.reg_ready r
      done;
      (* ROB backpressure: cannot dispatch past the window. *)
      let rob_head = Array.unsafe_get t.rob t.rob_pos in
      if rob_head > !ready then ready := rob_head;
      (* Execution port. *)
      let port = choose_port t iform.Iform.ports in
      if Array.unsafe_get t.port_free port > !ready then
        ready := Array.unsafe_get t.port_free port;
      let start = !ready in
      cs.Counters.backend <- cs.Counters.backend +. ((start -. f) *. width);
      let klass = iform.Iform.klass in
      ctr.Counters.insts <- ctr.Counters.insts + 1;
      (* Execute: sets [c.issue_after] and [c.done_t]. *)
      if klass = Iclass.Rep_string then begin
        let packed = Block.resolve_mem_packed ~rng temp in
        let addr = packed asr 1 and shared = packed land 1 = 1 in
        let addr = if addr < 0 then 0 else addr in
        let write_only = Array.length temp.Block.srcs = 0 in
        exec_rep_string t ~width addr shared ~write_only
          ~count:(max Cache.line_bytes temp.Block.rep_count)
          start
      end
      else begin
        (* Memory operand. *)
        let mem_lat =
          match temp.Block.mem with
          | Block.No_mem -> 0
          | _ ->
              let packed = Block.resolve_mem_packed ~rng temp in
              let addr = packed asr 1 and shared = packed land 1 = 1 in
              let write = Iclass.is_memory_write klass && not (Iclass.is_memory_read klass) in
              let lat = Memory.access_data t.mem ~core:t.core ~addr ~write ~shared in
              if klass = Iclass.Lock_rmw then
                ignore (Memory.access_data t.mem ~core:t.core ~addr ~write:true ~shared)
              else ();
              if write then 0 (* store latency hidden by the store buffer *) else lat
        in
        let start =
          if mem_lat > plat.Platform.lat_l2 then mshr_admit t start (float_of_int mem_lat)
          else start
        in
        let start = if klass = Iclass.Lock_rmw then fmax start c.last_lock_done else start in
        let exec_lat = float_of_int (iform.Iform.latency + mem_lat) in
        let done_t = start +. fmax 1.0 exec_lat in
        if klass = Iclass.Lock_rmw then c.last_lock_done <- done_t;
        (* Port occupancy: dividers are unpipelined. *)
        let occupancy =
          match klass with
          | Iclass.Int_div | Iclass.Float_div -> float_of_int iform.Iform.latency *. 0.6
          | _ -> 1.0
        in
        Array.unsafe_set t.port_free port (start +. occupancy);
        ctr.Counters.uops <- ctr.Counters.uops + iform.Iform.uops;
        cs.Counters.retiring <- cs.Counters.retiring +. float_of_int iform.Iform.uops;
        c.issue_after <- start +. (float_of_int iform.Iform.uops /. width);
        c.done_t <- done_t
      end;
      let done_t = c.done_t in
      (* Branch resolution. *)
      (match temp.Block.branch with
      | Some spec when klass = Iclass.Branch_cond ->
          ctr.Counters.branches <- ctr.Counters.branches + 1;
          let seq = temp.Block.branch_seq in
          temp.Block.branch_seq <- seq + 1;
          let outcome =
            Block.branch_outcome ~m:spec.Block.m ~n:spec.Block.n seq <> spec.Block.invert
          in
          (match Branch_pred.predict_and_update t.bp ~pc ~taken:outcome with
          | `Correct -> ()
          | `Mispredict ->
              ctr.Counters.mispredicts <- ctr.Counters.mispredicts + 1;
              let redirect = done_t +. float_of_int plat.Platform.mispredict_penalty in
              c.fetch_avail <- fmax c.fetch_avail redirect;
              c.resteer_until <- fmax c.resteer_until redirect
          | `Btb_miss ->
              ctr.Counters.btb_misses <- ctr.Counters.btb_misses + 1;
              let redirect = start +. float_of_int plat.Platform.btb_miss_penalty in
              c.fetch_avail <- fmax c.fetch_avail redirect)
      | Some _ | None ->
          if Iclass.is_control klass then begin
            ctr.Counters.branches <- ctr.Counters.branches + 1;
            match Branch_pred.note_unconditional t.bp ~pc with
            | `Correct -> ()
            | `Btb_miss ->
                ctr.Counters.btb_misses <- ctr.Counters.btb_misses + 1;
                let redirect = start +. float_of_int plat.Platform.btb_miss_penalty in
                c.fetch_avail <- fmax c.fetch_avail redirect
          end);
      (* Writeback and retirement bookkeeping. *)
      if temp.Block.dst >= 0 then Array.unsafe_set t.reg_ready temp.Block.dst done_t;
      Array.unsafe_set t.rob t.rob_pos done_t;
      let rp = t.rob_pos + 1 in
      t.rob_pos <- (if rp = rob_len then 0 else rp);
      if done_t > c.max_done then c.max_done <- done_t;
      c.next_issue <- fmax c.next_issue c.issue_after
    done
  done;
  cs.Counters.cycles <- cs.Counters.cycles +. fmax 0.0 (now t -. before)
