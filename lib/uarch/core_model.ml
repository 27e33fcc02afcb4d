open Ditto_isa

(* The per-core float state lives in its own all-float record, stored flat
   like [Counters.slots]: [exec_block] loads it into locals when a call
   starts and stores it back as raw doubles when it ends, with no box
   allocation and no [caml_modify]. *)
type clock = {
  mutable next_issue : float;
  mutable fetch_avail : float;
  mutable resteer_until : float;
  mutable max_done : float;
  mutable last_lock_done : float;
  mutable width_factor : float;
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

(* For each 8-bit port mask, its ports in ascending order, so the issue
   stage scans only the ports an iform can use. The empty mask maps to
   port 0, as a scan over no ports would leave it. *)
let port_lists =
  let all = List.init Iform.port_count Fun.id in
  Array.init (1 lsl Iform.port_count) (fun mask ->
      match List.filter (fun p -> mask land (1 lsl p) <> 0) all with
      | [] -> [| 0 |]
      | ports -> Array.of_list ports)

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

(* The whole call keeps the pipeline clock, the ROB cursor, the last fetch
   line and the top-down accumulators in locals (unboxed float refs) and
   writes them back once at the end. Float accumulations keep their
   per-instruction order, so every sum is the one a field-by-field update
   would give. [insts], [uops] and [retiring] are added once per call:
   they are sums of small integers, which a double holds exactly below
   2^53, so the grouping does not change them. *)
let exec_block t ~rng (block : Block.t) ~iterations =
  t.used <- true;
  let width = effective_width t in
  let plat = t.plat and mem = t.mem and core = t.core in
  let reg_ready = t.reg_ready and port_free = t.port_free and rob = t.rob in
  let c = t.c in
  let ctr = Memory.counters mem core in
  let cs = ctr.Counters.s in
  let rob_len = Array.length rob in
  let temps = block.Block.temps and addrs = block.Block.addrs in
  let decode = block.Block.decode and occupancy = block.Block.occupancy in
  let ntemps = Array.length temps in
  let lat_l2 = plat.Platform.lat_l2 in
  let next_issue = ref c.next_issue and fetch_avail = ref c.fetch_avail in
  let resteer_until = ref c.resteer_until and max_done = ref c.max_done in
  let last_lock_done = ref c.last_lock_done in
  let rob_pos = ref t.rob_pos and last_line = ref t.last_fetch_line in
  let bad_spec = ref cs.Counters.bad_spec and frontend = ref cs.Counters.frontend in
  let backend = ref cs.Counters.backend in
  (* The execute stage's result for the current instruction. *)
  let issue_after = ref 0.0 and done_t = ref 0.0 in
  (* Whatever a pass fetched, the core ends it on the last template's
     line. *)
  let pass_end_line =
    if ntemps = 0 then t.last_fetch_line
    else addrs.(ntemps - 1) land lnot (Cache.line_bytes - 1)
  in
  let before = fmax !next_issue !max_done in
  for _iteration = 0 to iterations - 1 do
    for k = 0 to ntemps - 1 do
      let temp = Array.unsafe_get temps k in
      let iform = temp.Block.iform in
      let d = Array.unsafe_get decode k in
      let pc = Array.unsafe_get addrs k in
      let base = !next_issue in
      (* Instruction fetch: one i-cache access per new line. Past template
         0 the block's own layout decides; template 0 follows whatever this
         core fetched last. *)
      if d land Block.d_new_line <> 0 then begin
        let line = pc land lnot (Cache.line_bytes - 1) in
        if k > 0 || line <> !last_line then begin
          let bubble = Memory.access_inst mem ~core ~addr:pc in
          if bubble > 0 then fetch_avail := fmax !fetch_avail base +. float_of_int bubble
        end
      end;
      let f = fmax base !fetch_avail in
      (* Attribute the fetch gap: resteer shadow counts as bad speculation. *)
      let gap = f -. base in
      if gap > 0.0 then begin
        let bad = fmax 0.0 (fmin f !resteer_until -. base) in
        bad_spec := !bad_spec +. (bad *. width);
        frontend := !frontend +. ((gap -. bad) *. width)
      end;
      (* Register dependencies. *)
      let ready = ref f in
      let srcs = temp.Block.srcs in
      for s = 0 to Array.length srcs - 1 do
        let r = Array.unsafe_get srcs s in
        (* [Block.temp] admits only [no_reg] and ids below [num_regs]. *)
        if r >= 0 && Array.unsafe_get reg_ready r > !ready then
          ready := Array.unsafe_get reg_ready r
      done;
      (* ROB backpressure: cannot dispatch past the window. *)
      let rob_head = Array.unsafe_get rob !rob_pos in
      if rob_head > !ready then ready := rob_head;
      (* Execution port: the earliest free of the iform's ports, the lowest
         index on a tie. *)
      let ports = port_lists.(iform.Iform.ports) in
      let port = ref (Array.unsafe_get ports 0) in
      let port_t = ref (Array.unsafe_get port_free !port) in
      for i = 1 to Array.length ports - 1 do
        let p = Array.unsafe_get ports i in
        if Array.unsafe_get port_free p < !port_t then begin
          port_t := Array.unsafe_get port_free p;
          port := p
        end
      done;
      if !port_t > !ready then ready := !port_t;
      let start = !ready in
      backend := !backend +. ((start -. f) *. width);
      (* Execute: sets [issue_after] and [done_t]. *)
      if d land Block.d_rep <> 0 then begin
        (* A REP string moves a line per chunk: a read (unless write-only)
           and a write to a destination 256 KB away, two uops each. It
           holds no execution port. *)
        let packed = Block.resolve_mem_packed ~rng temp in
        let addr = packed asr 1 and shared = packed land 1 = 1 in
        let addr = if addr < 0 then 0 else addr in
        let write_only = Array.length temp.Block.srcs = 0 in
        let issue = ref start and finish = ref start in
        for i = 0 to Block.rep_chunks temp - 1 do
          let a = addr + (Cache.line_bytes * i) in
          let rl =
            if write_only then 1 else Memory.access_data mem ~core ~addr:a ~write:false ~shared
          in
          ignore (Memory.access_data mem ~core ~addr:(a + 0x40000) ~write:true ~shared:false);
          finish := fmax !finish (!issue +. float_of_int rl);
          issue := !issue +. (2.0 /. width)
        done;
        issue_after := !issue;
        done_t := !finish
      end
      else begin
        (* Memory operand. *)
        let mem_lat =
          match temp.Block.mem with
          | Block.No_mem -> 0
          | _ ->
              let packed = Block.resolve_mem_packed ~rng temp in
              let addr = packed asr 1 and shared = packed land 1 = 1 in
              let write = d land Block.d_store <> 0 in
              let lat = Memory.access_data mem ~core ~addr ~write ~shared in
              if d land Block.d_lock <> 0 then
                ignore (Memory.access_data mem ~core ~addr ~write:true ~shared);
              if write then 0 (* store latency hidden by the store buffer *) else lat
        in
        let start = if mem_lat > lat_l2 then mshr_admit t start (float_of_int mem_lat) else start in
        let locked = d land Block.d_lock <> 0 in
        let start = if locked then fmax start !last_lock_done else start in
        let exec_lat = float_of_int (iform.Iform.latency + mem_lat) in
        let finish = start +. fmax 1.0 exec_lat in
        if locked then last_lock_done := finish;
        Array.unsafe_set port_free !port (start +. Array.unsafe_get occupancy k);
        issue_after := start +. (float_of_int iform.Iform.uops /. width);
        done_t := finish
      end;
      let done_t = !done_t in
      (* Branch resolution. *)
      (match temp.Block.branch with
      | Some spec when d land Block.d_cond <> 0 ->
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
              fetch_avail := fmax !fetch_avail redirect;
              resteer_until := fmax !resteer_until redirect
          | `Btb_miss ->
              ctr.Counters.btb_misses <- ctr.Counters.btb_misses + 1;
              let redirect = start +. float_of_int plat.Platform.btb_miss_penalty in
              fetch_avail := fmax !fetch_avail redirect)
      | Some _ | None ->
          if d land Block.d_control <> 0 then begin
            ctr.Counters.branches <- ctr.Counters.branches + 1;
            match Branch_pred.note_unconditional t.bp ~pc with
            | `Correct -> ()
            | `Btb_miss ->
                ctr.Counters.btb_misses <- ctr.Counters.btb_misses + 1;
                let redirect = start +. float_of_int plat.Platform.btb_miss_penalty in
                fetch_avail := fmax !fetch_avail redirect
          end);
      (* Writeback and retirement bookkeeping. *)
      if temp.Block.dst >= 0 then Array.unsafe_set reg_ready temp.Block.dst done_t;
      Array.unsafe_set rob !rob_pos done_t;
      let rp = !rob_pos + 1 in
      rob_pos := if rp = rob_len then 0 else rp;
      if done_t > !max_done then max_done := done_t;
      next_issue := fmax !next_issue !issue_after
    done;
    last_line := pass_end_line
  done;
  c.next_issue <- !next_issue;
  c.fetch_avail <- !fetch_avail;
  c.resteer_until <- !resteer_until;
  c.max_done <- !max_done;
  c.last_lock_done <- !last_lock_done;
  t.rob_pos <- !rob_pos;
  t.last_fetch_line <- !last_line;
  cs.Counters.bad_spec <- !bad_spec;
  cs.Counters.frontend <- !frontend;
  cs.Counters.backend <- !backend;
  let passes_uops = iterations * block.Block.pass_uops in
  ctr.Counters.insts <- ctr.Counters.insts + (iterations * ntemps);
  ctr.Counters.uops <- ctr.Counters.uops + passes_uops;
  cs.Counters.retiring <- cs.Counters.retiring +. float_of_int passes_uops;
  cs.Counters.cycles <- cs.Counters.cycles +. fmax 0.0 (now t -. before)
