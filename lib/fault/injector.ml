open Ditto_sim
module Rng = Ditto_util.Rng

(* One tier's fault state, read directly by the handles the serving path
   holds. [slow], [add_latency] and [drop] are recomputed from the active
   events' terms at every window edge rather than by undoing an event's
   term: repeated float division or subtraction could leave "no active
   event" a rounding error away from exactly 1.0 or 0.0, and a drop
   probability above 0.0 draws a coin. *)
type tier = {
  mutable down : int;  (* nesting count of active crash windows *)
  mutable slow : float;  (* product of active slowdown factors *)
  mutable slow_factors : float list;
  mutable add_latency : float;  (* summed active link latencies *)
  mutable latencies : float list;
  mutable drop : float;  (* combined drop probability of active link events *)
  mutable drop_factors : float list;  (* per-event (1 - drop) survival terms *)
  mutable partitioned : int;
  mutable drops : int;  (* messages dropped with this tier as source *)
}

type t = { plan : Plan.t; engine : Engine.t; rng : Rng.t; tiers : (string, tier) Hashtbl.t }

let create ~engine ~seed plan =
  { plan; engine; rng = Rng.create seed; tiers = Hashtbl.create 16 }

let plan t = t.plan

let tier t name =
  match Hashtbl.find_opt t.tiers name with
  | Some s -> s
  | None ->
      let s =
        {
          down = 0;
          slow = 1.0;
          slow_factors = [];
          add_latency = 0.0;
          latencies = [];
          drop = 0.0;
          drop_factors = [];
          partitioned = 0;
          drops = 0;
        }
      in
      Hashtbl.add t.tiers name s;
      s

let up s = s.down = 0
let slow s = s.slow
let product = List.fold_left ( *. ) 1.0

let set_slow s factors =
  s.slow_factors <- factors;
  s.slow <- product factors

let set_link s latencies survivals =
  s.latencies <- latencies;
  s.add_latency <- List.fold_left ( +. ) 0.0 latencies;
  s.drop_factors <- survivals;
  s.drop <- 1.0 -. product survivals

let remove_one x xs =
  let rec go = function [] -> [] | y :: ys -> if y = x then ys else y :: go ys in
  go xs

let arm t ~at =
  List.iter
    (fun (e : Plan.event) ->
      let s = tier t e.tier in
      let start = at +. e.at in
      match e.kind with
      | Plan.Crash { down_for } ->
          Engine.schedule t.engine start (fun () -> s.down <- s.down + 1);
          Engine.schedule t.engine (start +. down_for) (fun () -> s.down <- s.down - 1)
      | Plan.Slowdown { factor; lasts } ->
          Engine.schedule t.engine start (fun () -> set_slow s (factor :: s.slow_factors));
          Engine.schedule t.engine (start +. lasts) (fun () ->
              set_slow s (remove_one factor s.slow_factors))
      | Plan.Link { add_latency; drop; lasts } ->
          let survival = 1.0 -. drop in
          Engine.schedule t.engine start (fun () ->
              set_link s (add_latency :: s.latencies) (survival :: s.drop_factors));
          Engine.schedule t.engine (start +. lasts) (fun () ->
              set_link s (remove_one add_latency s.latencies) (remove_one survival s.drop_factors))
      | Plan.Partition { lasts } ->
          Engine.schedule t.engine start (fun () -> s.partitioned <- s.partitioned + 1);
          Engine.schedule t.engine (start +. lasts) (fun () ->
              s.partitioned <- s.partitioned - 1))
    t.plan.Plan.events

let disruptor t ~src ~dst =
  let a = tier t src and b = tier t dst in
  fun ~bytes:_ ->
    if a.partitioned > 0 || b.partitioned > 0 then begin
      a.drops <- a.drops + 1;
      Ditto_net.Socket.Drop
    end
    else
      let p = 1.0 -. ((1.0 -. a.drop) *. (1.0 -. b.drop)) in
      if p > 0.0 && Rng.float t.rng 1.0 < p then begin
        a.drops <- a.drops + 1;
        Ditto_net.Socket.Drop
      end
      else
        let d = a.add_latency +. b.add_latency in
        if d > 0.0 then Ditto_net.Socket.Delay d else Ditto_net.Socket.Deliver

let drops t name = (tier t name).drops
let total_drops t = Hashtbl.fold (fun _ s acc -> acc + s.drops) t.tiers 0
