type t = { tbl : (int, int ref) Hashtbl.t; mutable total : int }

let create () = { tbl = Hashtbl.create 64; total = 0 }

let add ?(count = 1) t key =
  (match Hashtbl.find_opt t.tbl key with
  | Some r -> r := !r + count
  | None -> Hashtbl.add t.tbl key (ref count));
  t.total <- t.total + count

let count t key = match Hashtbl.find_opt t.tbl key with Some r -> !r | None -> 0
let total t = t.total

let bindings t =
  Hashtbl.fold (fun k r acc -> (k, !r) :: acc) t.tbl []
  |> List.sort (fun (a, _) (b, _) -> compare a b)

let merge a b =
  let out = create () in
  List.iter (fun (k, c) -> add ~count:c out k) (bindings a);
  List.iter (fun (k, c) -> add ~count:c out k) (bindings b);
  out

let log2_bin v =
  let v = Int.max 1 v in
  let rec go acc v = if v <= 1 then acc else go (acc + 1) (v lsr 1) in
  go 0 v

let max_rate_bin = 10

let log2_bin_rate r =
  if r <= 0.0 then max_rate_bin
  else if r >= 1.0 then 0
  else begin
    let b = int_of_float (Float.round (-.Float.log2 r)) in
    max 0 (min max_rate_bin b)
  end

let rate_of_log2_bin b = 2.0 ** float_of_int (-b)
