(* The first column is left-aligned, every other column right-aligned. *)
let pad ~left width s =
  let n = String.length s in
  if n >= width then s
  else begin
    let fill = String.make (width - n) ' ' in
    if left then s ^ fill else fill ^ s
  end

let render ~header rows =
  let all = header :: rows in
  let ncols = List.fold_left (fun a r -> max a (List.length r)) 0 all in
  let widths = Array.make ncols 0 in
  List.iter
    (fun row -> List.iteri (fun i cell -> widths.(i) <- max widths.(i) (String.length cell)) row)
    all;
  let line row =
    row |> List.mapi (fun i cell -> pad ~left:(i = 0) widths.(i) cell) |> String.concat "  "
  in
  let rule =
    Array.to_list widths |> List.map (fun w -> String.make w '-') |> String.concat "  "
  in
  String.concat "\n" (line header :: rule :: List.map line rows)

let print ~title ~header rows = Printf.printf "\n== %s ==\n%s\n" title (render ~header rows)

let fmt_float x =
  if x = 0.0 then "0"
  else begin
    let a = Float.abs x in
    if a >= 10000.0 || a < 0.001 then Printf.sprintf "%.3e" x
    else if a >= 100.0 then Printf.sprintf "%.1f" x
    else if a >= 10.0 then Printf.sprintf "%.2f" x
    else Printf.sprintf "%.3f" x
  end

let fmt_pct x = Printf.sprintf "%.1f%%" x
