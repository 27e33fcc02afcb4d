open Ditto_isa

type t = {
  insts_per_request : float;
  iform_counts : (int * int) list;
  clusters : (int list * float) list;
  rep_mean_count : float;
  rep_fraction : float;
}

let cluster_threshold = 0.8

let observer ?(live = ref true) () =
  let counts = Array.make Iform.count 0 in
  let requests = ref 0 in
  let total = ref 0 in
  let rep_insts = ref 0 and rep_bytes = ref 0 in
  let obs =
    {
      Stream.null_observer with
      Stream.on_event =
        (fun ev ->
          if !live then begin
            let iform = ev.Block.ev_temp.Block.iform in
            counts.(iform.Iform.id) <- counts.(iform.Iform.id) + 1;
            incr total;
            if iform.Iform.klass = Iclass.Rep_string then begin
              incr rep_insts;
              rep_bytes := !rep_bytes + ev.Block.ev_temp.Block.rep_count
            end
          end);
      on_request_end = (fun () -> if !live then incr requests);
    }
  in
  let finish () =
    let iform_counts =
      Array.to_list (Array.mapi (fun id c -> (id, c)) counts)
      |> List.filter (fun (_, c) -> c > 0)
    in
    let observed = List.map (fun (id, _) -> Iform.of_id id) iform_counts in
    let clusters_raw =
      Ditto_util.Cluster.agglomerative ~distance:Iform.feature_distance
        ~threshold:cluster_threshold (Array.of_list observed)
    in
    let total_f = float_of_int (max 1 !total) in
    let clusters =
      List.map
        (fun members ->
          let ids = List.map (fun (f : Iform.t) -> f.Iform.id) members in
          let weight =
            List.fold_left (fun acc id -> acc +. float_of_int counts.(id)) 0.0 ids /. total_f
          in
          (ids, weight))
        clusters_raw
    in
    {
      insts_per_request = float_of_int !total /. float_of_int (max 1 !requests);
      iform_counts;
      clusters;
      rep_mean_count =
        (if !rep_insts = 0 then 0.0 else float_of_int !rep_bytes /. float_of_int !rep_insts);
      rep_fraction = float_of_int !rep_insts /. total_f;
    }
  in
  (obs, finish)

let iform_sampler t =
  match t.clusters with
  | [] ->
      let add = Iform.by_name "ADD_GPR64_GPR64" in
      fun _ -> add
  | clusters ->
      let module Dist = Ditto_util.Dist in
      let counts = Hashtbl.of_seq (List.to_seq t.iform_counts) in
      let member ids =
        Dist.discrete
          (List.map
             (fun id ->
               let c = Option.value ~default:0 (Hashtbl.find_opt counts id) in
               (Iform.of_id id, float_of_int (max 1 c)))
             ids)
      in
      let d = Dist.discrete (List.map (fun (ids, w) -> (member ids, w)) clusters) in
      fun rng -> Dist.discrete_sample (Dist.discrete_sample d rng) rng
