type 'a tree = Node of 'a * 'a tree list

let node label children = Node (label, children)
let leaf label = Node (label, [])

let rec size (Node (_, cs)) = 1 + List.fold_left (fun a c -> a + size c) 0 cs
let rec depth (Node (_, cs)) = 1 + List.fold_left (fun a c -> max a (depth c)) 0 cs

(* Post-order indexing with leftmost-leaf descendants, per Zhang & Shasha
   (1989). [labels.(i)] is the label of postorder node i, [lld.(i)] the
   postorder index of the leftmost leaf of the subtree rooted at i, and
   [keyroots] the standard keyroot set. *)
type 'a indexed = { labels : 'a array; lld : int array; keyroots : int list }

let index tree =
  let labels = ref [] and lld = ref [] in
  let counter = ref 0 in
  let rec go (Node (label, children)) =
    let child_llds = List.map go children in
    let my_index = !counter in
    incr counter;
    let my_lld = match child_llds with [] -> my_index | first :: _ -> first in
    labels := label :: !labels;
    lld := my_lld :: !lld;
    my_lld
  in
  ignore (go tree);
  let labels = Array.of_list (List.rev !labels) in
  let lld = Array.of_list (List.rev !lld) in
  let n = Array.length labels in
  (* Keyroots: nodes with no left sibling on the path to the root, i.e. the
     highest node for each distinct leftmost-leaf value. *)
  let last_for_lld = Hashtbl.create 16 in
  for i = 0 to n - 1 do
    Hashtbl.replace last_for_lld lld.(i) i
  done;
  let keyroots =
    Hashtbl.fold (fun _ i acc -> i :: acc) last_for_lld [] |> List.sort compare
  in
  { labels; lld; keyroots }

(* Unit costs: an insert or a delete costs 1, a substitution 0 between
   equal labels and 1 otherwise. *)
let distance t1 t2 =
  let cost_sub x y = if x = y then 0.0 else 1.0 in
  let a = index t1 and b = index t2 in
  let n = Array.length a.labels and m = Array.length b.labels in
  let td = Array.make_matrix n m 0.0 in
  let tree_dist i j =
    let li = a.lld.(i) and lj = b.lld.(j) in
    let rows = i - li + 2 and cols = j - lj + 2 in
    let fd = Array.make_matrix rows cols 0.0 in
    for x = 1 to rows - 1 do
      fd.(x).(0) <- fd.(x - 1).(0) +. 1.0
    done;
    for y = 1 to cols - 1 do
      fd.(0).(y) <- fd.(0).(y - 1) +. 1.0
    done;
    for x = 1 to rows - 1 do
      let node_a = li + x - 1 in
      for y = 1 to cols - 1 do
        let node_b = lj + y - 1 in
        if a.lld.(node_a) = li && b.lld.(node_b) = lj then begin
          let d =
            Float.min
              (Float.min
                 (fd.(x - 1).(y) +. 1.0)
                 (fd.(x).(y - 1) +. 1.0))
              (fd.(x - 1).(y - 1) +. cost_sub a.labels.(node_a) b.labels.(node_b))
          in
          fd.(x).(y) <- d;
          td.(node_a).(node_b) <- d
        end
        else begin
          let xa = a.lld.(node_a) - li and yb = b.lld.(node_b) - lj in
          fd.(x).(y) <-
            Float.min
              (Float.min
                 (fd.(x - 1).(y) +. 1.0)
                 (fd.(x).(y - 1) +. 1.0))
              (fd.(xa).(yb) +. td.(node_a).(node_b))
        end
      done
    done
  in
  List.iter (fun i -> List.iter (fun j -> tree_dist i j) b.keyroots) a.keyroots;
  td.(n - 1).(m - 1)

let normalized_distance t1 t2 =
  let d = distance t1 t2 in
  d /. float_of_int (max (size t1) (size t2))
