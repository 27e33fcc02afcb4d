open Ditto_sim

type t = {
  cores : Engine.Resource.r;
  last_thread : int array;
  mutable next_slot : int;
  quantum : float;
  ctx_cost : float;
  mutable switches : int;
  mutable busy : float;
}

let create _engine ~ncores ?(quantum = 1e-3) ?(ctx_switch_cost = 3e-6) () =
  {
    cores = Engine.Resource.create (max 1 ncores);
    last_thread = Array.make (max 1 ncores) (-1);
    next_slot = 0;
    quantum;
    ctx_cost = ctx_switch_cost;
    switches = 0;
    busy = 0.0;
  }

let ncores t = Engine.Resource.capacity t.cores

let run_oncpu t ~thread seconds =
  let remaining = ref seconds in
  while !remaining > 0.0 do
    Engine.Resource.acquire t.cores;
    (* Approximate core identity round-robin for switch accounting. *)
    let slot = t.next_slot mod Array.length t.last_thread in
    t.next_slot <- t.next_slot + 1;
    let cost =
      if t.last_thread.(slot) <> thread then begin
        t.last_thread.(slot) <- thread;
        t.switches <- t.switches + 1;
        t.ctx_cost
      end
      else 0.0
    in
    let slice = Float.min t.quantum !remaining in
    Engine.wait (slice +. cost);
    t.busy <- t.busy +. slice +. cost;
    remaining := !remaining -. slice;
    Engine.Resource.release t.cores
  done

let context_switches t = t.switches
let busy_seconds t = t.busy
