open Ditto_isa
module Cache = Ditto_uarch.Cache

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

(* Per the paper: 8-way below 1MB, 16-way at or above; tiny caches shrink
   associativity so capacity is exactly 2^log2 bytes. *)
let sweep_cache log2 =
  let size = 1 lsl log2 in
  let assoc = if size >= 1 lsl 20 then 16 else 8 in
  let assoc = min assoc (max 1 (size / Cache.line_bytes)) in
  Cache.create ~size_bytes:size ~assoc ()

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
  let sizes = List.init (max_log2 - min_log2 + 1) (fun i -> min_log2 + i) in
  let d_caches = List.map (fun l -> (l, sweep_cache l, ref 0)) sizes in
  let i_caches = List.map (fun l -> (l, sweep_cache l, ref 0)) sizes in
  let d_total = ref 0 and i_total = ref 0 in
  let writes = ref 0 and shared = ref 0 and regular = ref 0 and loads = ref 0 in
  let requests = ref 0 in
  let strides : (int, stride_entry) Hashtbl.t = Hashtbl.create 256 in
  let last_line = ref (-1) in
  let on_event (ev : Block.event) =
    (* Instruction side: one access per line transition. *)
    let line = ev.Block.ev_pc land lnot (Cache.line_bytes - 1) in
    if line <> !last_line then begin
      last_line := line;
      if !live then incr i_total;
      List.iter
        (fun (_, c, hits) ->
          if Cache.access c line && !live then incr hits)
        i_caches
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
      let touch addr =
        let dline = addr land lnot (Cache.line_bytes - 1) in
        List.iter
          (fun (_, c, hits) ->
            if Cache.access c dline && !live then incr hits)
          d_caches
      in
      if klass = Iclass.Rep_string then begin
        (* A REP MOVS/STOS touches every line of its operand, sequentially
           — a regular (prefetch-friendly) stream. *)
        let lines = max 1 (ev.Block.ev_temp.Block.rep_count / Cache.line_bytes) in
        if !live then begin
          d_total := !d_total + (lines - 1);
          loads := !loads + (lines - 1);
          regular := !regular + (lines - 1)
        end;
        for i = 0 to lines - 1 do
          touch (ev.Block.ev_addr + (i * Cache.line_bytes))
        done
      end
      else touch ev.Block.ev_addr
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
    let d_hits = List.map (fun (l, _, h) -> (l, !h)) d_caches in
    let i_hits = List.map (fun (l, _, h) -> (l, !h)) i_caches in
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
