open Ditto_isa

let bins = 11
let bin_of_distance d = Int.min (bins - 1) (Ditto_util.Histogram.log2_bin d)

type t = {
  raw : float array;
  raw_addr : float array;
  war : float array;
  waw : float array;
  chase_fraction : float;
}

let observer ?(live = ref true) () =
  let raw = Array.make bins 0 and war = Array.make bins 0 and waw = Array.make bins 0 in
  let raw_addr = Array.make bins 0 in
  let last_write = Array.make Block.num_regs (-1) in
  let last_read = Array.make Block.num_regs (-1) in
  let pos = ref 0 in
  let loads = ref 0 and chases = ref 0 in
  let on_event (ev : Block.event) =
    let temp = ev.Block.ev_temp in
    let is_mem = temp.Block.iform.Iform.mem_width > 0 in
    let p = !pos in
    incr pos;
    Array.iter
      (fun src ->
        if src >= 0 then begin
          if last_write.(src) >= 0 && !live then begin
            let d = p - last_write.(src) in
            raw.(bin_of_distance d) <- raw.(bin_of_distance d) + 1;
            if is_mem then
              raw_addr.(bin_of_distance d) <- raw_addr.(bin_of_distance d) + 1
          end;
          last_read.(src) <- p
        end)
      temp.Block.srcs;
    let dst = temp.Block.dst in
    if dst >= 0 then begin
      if last_read.(dst) >= 0 && !live then begin
        let d = p - last_read.(dst) in
        war.(bin_of_distance d) <- war.(bin_of_distance d) + 1
      end;
      if last_write.(dst) >= 0 && !live then begin
        let d = p - last_write.(dst) in
        waw.(bin_of_distance d) <- waw.(bin_of_distance d) + 1
      end;
      last_write.(dst) <- p
    end;
    if
      Iclass.is_memory_read temp.Block.iform.Iform.klass
      && ev.Block.ev_addr >= 0
      && !live
    then begin
      incr loads;
      if dst >= 0 && Array.exists (fun s -> s = dst) temp.Block.srcs then incr chases
    end
  in
  let obs = { Stream.null_observer with Stream.on_event } in
  let normalise counts =
    let total = Array.fold_left ( + ) 0 counts in
    if total = 0 then Array.make bins 0.0
    else Array.map (fun c -> float_of_int c /. float_of_int total) counts
  in
  let finish () =
    {
      raw = normalise raw;
      raw_addr =
        (let n = normalise raw_addr in
         (* no memory instructions observed: fall back to long distances so
            generated addresses never serialise artificially *)
         if Array.for_all (fun x -> x = 0.0) n then begin
           let fallback = Array.make bins 0.0 in
           fallback.(bins - 1) <- 1.0;
           fallback
         end
         else n);
      war = normalise war;
      waw = normalise waw;
      chase_fraction = (if !loads = 0 then 0.0 else float_of_int !chases /. float_of_int !loads);
    }
  in
  (obs, finish)

let distance_sampler hist =
  if Array.exists (fun w -> w > 0.0) hist then
    Ditto_util.Dist.discrete_sample
      (Ditto_util.Dist.discrete (List.mapi (fun bin w -> (1 lsl bin, w)) (Array.to_list hist)))
  else fun _ -> 8
