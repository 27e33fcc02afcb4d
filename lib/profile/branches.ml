open Ditto_isa
module Histogram = Ditto_util.Histogram

type site = { m : int; n : int; invert : bool }

type t = {
  sites : (site * float) list;
  static_branches : int;
  branch_fraction : float;
}

type counts = {
  mutable total : int;
  mutable taken : int;
  mutable transitions : int;
  mutable last : bool option;
}

let quantize ~taken ~transitions ~total =
  let total = max 1 total in
  let taken_rate = float_of_int taken /. float_of_int total in
  let invert = taken_rate > 0.5 in
  let minority = if invert then 1.0 -. taken_rate else taken_rate in
  let transition_rate = float_of_int transitions /. float_of_int total in
  {
    m = Histogram.log2_bin_rate minority;
    n = Histogram.log2_bin_rate transition_rate;
    invert;
  }

let observer ?(live = ref true) () =
  let table : (int, counts) Hashtbl.t = Hashtbl.create 256 in
  let dyn_branches = ref 0 and dyn_insts = ref 0 in
  let on_event (ev : Block.event) =
    if !live then incr dyn_insts;
    match ev.Block.ev_taken with
    | None -> ()
    | Some taken when not !live ->
        (* warmup: track the outcome stream, count nothing *)
        (match Hashtbl.find_opt table ev.Block.ev_pc with
        | Some c -> c.last <- Some taken
        | None ->
            Hashtbl.add table ev.Block.ev_pc
              { total = 0; taken = 0; transitions = 0; last = Some taken })
    | Some taken ->
        incr dyn_branches;
        let c =
          match Hashtbl.find_opt table ev.Block.ev_pc with
          | Some c -> c
          | None ->
              let c = { total = 0; taken = 0; transitions = 0; last = None } in
              Hashtbl.add table ev.Block.ev_pc c;
              c
        in
        c.total <- c.total + 1;
        if taken then c.taken <- c.taken + 1;
        (match c.last with
        | Some prev when prev <> taken -> c.transitions <- c.transitions + 1
        | Some _ | None -> ());
        c.last <- Some taken
  in
  let obs = { Stream.null_observer with Stream.on_event } in
  let finish () =
    let bins = Hashtbl.create 64 in
    Hashtbl.iter
      (fun _pc c ->
        let site = quantize ~taken:c.taken ~transitions:c.transitions ~total:c.total in
        let cur = Option.value ~default:0 (Hashtbl.find_opt bins site) in
        Hashtbl.replace bins site (cur + 1))
      table;
    let static = Hashtbl.length table in
    let sites =
      Hashtbl.fold
        (fun site count acc -> (site, float_of_int count /. float_of_int (max 1 static)) :: acc)
        bins []
      |> List.sort (fun (a, _) (b, _) -> compare a b)
    in
    {
      sites;
      static_branches = static;
      branch_fraction =
        (if !dyn_insts = 0 then 0.0 else float_of_int !dyn_branches /. float_of_int !dyn_insts);
    }
  in
  (obs, finish)

let site_sampler t =
  if List.exists (fun (_, w) -> w > 0.0) t.sites then
    Ditto_util.Dist.discrete_sample (Ditto_util.Dist.discrete t.sites)
  else fun _ -> { m = 2; n = 3; invert = false }
