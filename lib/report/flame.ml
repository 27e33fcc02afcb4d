module Table = Ditto_util.Table

(* Stacks are distinct across tiers (the tier is the first frame) and
   within one tier's table, so joining frames needs no merge. *)
let fold stacks =
  List.map (fun (stack, seconds) -> (String.concat ";" stack, seconds)) stacks
  |> List.sort (fun (ka, a) (kb, b) -> match compare b a with 0 -> compare ka kb | c -> c)

let write_collapsed ~path stacks =
  let oc = open_out path in
  let written =
    List.fold_left
      (fun n (stack, seconds) ->
        let us = int_of_float ((seconds *. 1e6) +. 0.5) in
        if us > 0 then begin
          Printf.fprintf oc "%s %d\n" stack us;
          n + 1
        end
        else n)
      0 (fold stacks)
  in
  close_out oc;
  written

let print_top ~n stacks =
  let folded = fold stacks in
  let total = List.fold_left (fun a (_, s) -> a +. s) 0.0 folded in
  Table.print ~title:(Printf.sprintf "Top %d stacks by attributed time" n)
    ~header:[ "stack"; "ms"; "share" ]
    (List.filteri (fun i _ -> i < n) folded
    |> List.map (fun (stack, seconds) ->
           [
             stack;
             Printf.sprintf "%.3f" (1e3 *. seconds);
             (if total > 0.0 then Table.fmt_pct (100.0 *. seconds /. total) else "-");
           ]))
