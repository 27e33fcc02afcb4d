open Ditto_isa

type t = {
  d_hits : (int * int) list;
  d_accesses_total : int;
  d_working_sets : (int * float) list;
  i_hits : (int * int) list;
  i_accesses_total : int;
  i_working_sets : (int * float) list;
  regular_ratio : float;
  shared_ratio : float;
  write_ratio : float;
}

let min_log2 = 6
let line_bytes = 1 lsl min_log2

module Sweep = struct
  (* Each set is its resident lines, most recent first, padded with -1;
     a set stays the shared empty array until its first access. A sweep
     of a large heap touches few of its sets, so it allocates for the
     lines it touches rather than for every set of every size. *)
  type t = { mask : int; assoc : int; sets : int array array }

  let create ~sets ~assoc =
    if sets <= 0 || sets land (sets - 1) <> 0 then invalid_arg "Working_set.Sweep.create: sets";
    if assoc <= 0 then invalid_arg "Working_set.Sweep.create: assoc";
    { mask = sets - 1; assoc; sets = Array.make sets [||] }

  (* Position of [line] among the set's resident lines, or the number of
     resident lines when absent (the scan stops at the -1 padding or at
     [assoc]). *)
  let rec find (ways : int array) (line : int) i stop =
    if i = stop then i
    else
      let w = Array.unsafe_get ways i in
      if w = line || w < 0 then i else find ways line (i + 1) stop

  let access t addr =
    let line = addr lsr min_log2 in
    let s = line land t.mask in
    let ways =
      match Array.unsafe_get t.sets s with
      | [||] ->
          let ways = Array.make t.assoc (-1) in
          Array.unsafe_set t.sets s ways;
          ways
      | ways -> ways
    in
    let i = find ways line 0 t.assoc in
    let hit = i < t.assoc && Array.unsafe_get ways i = line in
    (* Move the line to the front: on a hit from its old place, on a miss
       from past the last resident line, dropping the oldest when full. *)
    for j = (if i = t.assoc then i - 1 else i) downto 1 do
      Array.unsafe_set ways j (Array.unsafe_get ways (j - 1))
    done;
    Array.unsafe_set ways 0 line;
    hit
end

(* Per the paper: 8-way below 1MB, 16-way at or above; tiny caches shrink
   associativity so capacity is exactly 2^log2 bytes. *)
let sweep_cache log2 =
  let lines = 1 lsl (log2 - min_log2) in
  let assoc = Int.min (if log2 >= 20 then 16 else 8) lines in
  Sweep.create ~sets:(lines / assoc) ~assoc

let eq1 ?(total_accesses = 0) ~requests hits =
  let r = float_of_int (max 1 requests) in
  let sorted = List.sort compare hits in
  let rec go prev = function
    | [] -> []
    | (log2, h) :: rest ->
        let a = if log2 = min_log2 then h else h - prev in
        (log2, float_of_int (max 0 a) /. r) :: go h rest
  in
  let base = go 0 sorted in
  (* Accesses that miss even a cache as large as the application's whole
     footprint are streaming over that footprint: assign them to the
     largest working set so the clone reproduces the traffic (the paper's
     sweep extends to "the maximum memory size allocated", where such
     accesses eventually hit over a long enough run). *)
  match List.rev base with
  | [] -> []
  | (top_log2, top_a) :: rev_rest ->
      let hits_at_max = match List.rev sorted with [] -> 0 | (_, h) :: _ -> h in
      let residual = float_of_int (max 0 (total_accesses - hits_at_max)) /. r in
      List.rev ((top_log2, top_a +. residual) :: rev_rest)

let eq2 ~requests hits =
  let r = float_of_int (max 1 requests) in
  let sorted = List.sort compare hits in
  let total_accesses =
    (* H at the largest size underestimates only by compulsory misses. *)
    match List.rev sorted with [] -> 0 | (_, h) :: _ -> h
  in
  let upper =
    let rec go prev = function
      | [] -> []
      | (log2, h) :: rest ->
          if log2 = min_log2 then go h rest
          else (log2, 16.0 *. float_of_int (max 0 (h - prev)) /. r) :: go h rest
    in
    go 0 sorted
  in
  let upper_sum = List.fold_left (fun acc (_, e) -> acc +. e) 0.0 upper in
  let base = Float.max 0.0 ((16.0 *. float_of_int total_accesses /. r) -. upper_sum) in
  (min_log2, base) :: upper

type stride_entry = { mutable last : int; mutable stride : int }

let observer ?(live = ref true) ~max_log2 () =
  let max_log2 = max (min_log2 + 1) max_log2 in
  let sizes = Array.init (max_log2 - min_log2 + 1) (fun i -> min_log2 + i) in
  let d_caches = Array.map sweep_cache sizes and d_hits = Array.make (Array.length sizes) 0 in
  let i_caches = Array.map sweep_cache sizes and i_hits = Array.make (Array.length sizes) 0 in
  let sweep caches hits line =
    let live = !live in
    for k = 0 to Array.length caches - 1 do
      if Sweep.access caches.(k) line && live then hits.(k) <- hits.(k) + 1
    done
  in
  let d_total = ref 0 and i_total = ref 0 in
  let writes = ref 0 and shared = ref 0 and regular = ref 0 and loads = ref 0 in
  let requests = ref 0 in
  let strides : (int, stride_entry) Hashtbl.t = Hashtbl.create 256 in
  let last_line = ref (-1) in
  let on_event (ev : Block.event) =
    (* Instruction side: one access per line transition. *)
    let line = ev.Block.ev_pc land lnot (line_bytes - 1) in
    if line <> !last_line then begin
      last_line := line;
      if !live then incr i_total;
      sweep i_caches i_hits line
    end;
    (* Data side. *)
    if ev.Block.ev_addr >= 0 then begin
      let klass = ev.Block.ev_temp.Block.iform.Iform.klass in
      if !live then begin
        incr d_total;
        if Iclass.is_memory_write klass then incr writes;
        if ev.Block.ev_shared then incr shared
      end;
      if Iclass.is_memory_read klass then begin
        if !live then incr loads;
        let e =
          match Hashtbl.find_opt strides ev.Block.ev_pc with
          | Some e -> e
          | None ->
              let e = { last = -1; stride = 0 } in
              Hashtbl.add strides ev.Block.ev_pc e;
              e
        in
        if e.last >= 0 then begin
          let s = ev.Block.ev_addr - e.last in
          if s = e.stride && s <> 0 then begin if !live then incr regular end
          else e.stride <- s
        end;
        e.last <- ev.Block.ev_addr
      end;
      if klass = Iclass.Rep_string then begin
        (* A REP MOVS/STOS touches every line of its operand, sequentially
           — a regular (prefetch-friendly) stream. *)
        let lines = max 1 (ev.Block.ev_temp.Block.rep_count / line_bytes) in
        if !live then begin
          d_total := !d_total + (lines - 1);
          loads := !loads + (lines - 1);
          regular := !regular + (lines - 1)
        end;
        for i = 0 to lines - 1 do
          sweep d_caches d_hits (ev.Block.ev_addr + (i * line_bytes))
        done
      end
      else sweep d_caches d_hits ev.Block.ev_addr
    end
  in
  let obs =
    {
      Stream.null_observer with
      Stream.on_event;
      on_request_end = (fun () -> if !live then incr requests);
    }
  in
  let finish () =
    let d_hits = List.combine (Array.to_list sizes) (Array.to_list d_hits) in
    let i_hits = List.combine (Array.to_list sizes) (Array.to_list i_hits) in
    {
      d_hits;
      d_accesses_total = !d_total;
      d_working_sets = eq1 ~total_accesses:!d_total ~requests:!requests d_hits;
      i_hits;
      i_accesses_total = !i_total;
      i_working_sets = eq2 ~requests:!requests i_hits;
      regular_ratio = (if !loads = 0 then 0.0 else float_of_int !regular /. float_of_int !loads);
      shared_ratio = (if !d_total = 0 then 0.0 else float_of_int !shared /. float_of_int !d_total);
      write_ratio = (if !d_total = 0 then 0.0 else float_of_int !writes /. float_of_int !d_total);
    }
  in
  (obs, finish)
