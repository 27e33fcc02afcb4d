(* Average linkage: the mean item-pair distance between two clusters,
   from a precomputed item-pair matrix. *)
let cluster_distance dmat ca cb =
  let sum = ref 0.0 and n = ref 0 in
  List.iter
    (fun i ->
      List.iter
        (fun j ->
          sum := !sum +. dmat.(i).(j);
          incr n)
        cb)
    ca;
  if !n = 0 then 0.0 else !sum /. float_of_int !n

let run ~distance ~stop items =
  let n = Array.length items in
  if n = 0 then []
  else begin
    let dmat = Array.make_matrix n n 0.0 in
    for i = 0 to n - 1 do
      for j = i + 1 to n - 1 do
        let d = distance items.(i) items.(j) in
        dmat.(i).(j) <- d;
        dmat.(j).(i) <- d
      done
    done;
    (* Clusters hold item indices. *)
    let clusters = ref (List.init n (fun i -> [ i ])) in
    let continue = ref true in
    while !continue && List.length !clusters > 1 do
      let cs = Array.of_list !clusters in
      let m = Array.length cs in
      let best = ref (0, 1, infinity) in
      for i = 0 to m - 1 do
        for j = i + 1 to m - 1 do
          let d = cluster_distance dmat cs.(i) cs.(j) in
          let _, _, bd = !best in
          if d < bd then best := (i, j, d)
        done
      done;
      let bi, bj, bd = !best in
      if stop (List.length !clusters) bd then continue := false
      else begin
        let merged = cs.(bi) @ cs.(bj) in
        let rest = ref [] in
        Array.iteri (fun k c -> if k <> bi && k <> bj then rest := c :: !rest) cs;
        clusters := merged :: !rest
      end
    done;
    List.map (fun c -> List.map (fun i -> items.(i)) c) !clusters
  end

let agglomerative ~distance ~threshold items =
  run ~distance ~stop:(fun _ d -> d > threshold) items

let agglomerative_k ~distance ~k items =
  run ~distance ~stop:(fun ncl _ -> ncl <= k) items
