(* Keys are stored as-is and [empty] marks a free slot, which is why keys
   must be non-negative. The table never fills past half, so every probe
   run ends at an empty slot. *)
let empty = -1

type t = {
  mutable keys : int array;
  mutable vals : int array;
  mutable mask : int;
  mutable count : int;
}

let rec pow2_at_least n k = if k >= n then k else pow2_at_least n (k * 2)

let create n =
  let n = pow2_at_least n 8 in
  { keys = Array.make n empty; vals = Array.make n 0; mask = n - 1; count = 0 }

(* Multiplicative mixing folded down, so strided keys (line addresses,
   page ids of fixed-size records) spread over the low bits the mask
   keeps. *)
let[@inline] home key mask =
  let h = key * 0x9E3779B1 in
  (h lxor (h lsr 16)) land mask

(* First slot at or after [i] holding [key] or free. The annotations keep
   the comparisons on ints rather than the polymorphic compare. *)
let rec probe (keys : int array) (mask : int) (key : int) i =
  let k = Array.unsafe_get keys i in
  if k = key || k = empty then i else probe keys mask key ((i + 1) land mask)

let find t key =
  let i = probe t.keys t.mask key (home key t.mask) in
  if Array.unsafe_get t.keys i = empty then -1 else Array.unsafe_get t.vals i

let grow t =
  let old_keys = t.keys and old_vals = t.vals in
  let n = 2 * Array.length old_keys in
  let keys = Array.make n empty and vals = Array.make n 0 in
  let mask = n - 1 in
  for i = 0 to Array.length old_keys - 1 do
    let k = Array.unsafe_get old_keys i in
    if k <> empty then begin
      let j = probe keys mask k (home k mask) in
      Array.unsafe_set keys j k;
      Array.unsafe_set vals j (Array.unsafe_get old_vals i)
    end
  done;
  t.keys <- keys;
  t.vals <- vals;
  t.mask <- mask

let replace t key v =
  if key < 0 || v < 0 then invalid_arg "Int_table.replace: negative key or value";
  let i = probe t.keys t.mask key (home key t.mask) in
  if Array.unsafe_get t.keys i = empty then begin
    Array.unsafe_set t.keys i key;
    Array.unsafe_set t.vals i v;
    t.count <- t.count + 1;
    if 2 * t.count > t.mask then grow t
  end
  else Array.unsafe_set t.vals i v

(* Backward-shift deletion: free the key's slot, then walk the rest of its
   probe run and pull back every entry whose home slot lies at or before
   the hole, so no run is broken and no tombstones build up. *)
let remove t key =
  let keys = t.keys and vals = t.vals and mask = t.mask in
  let i = probe keys mask key (home key mask) in
  if Array.unsafe_get keys i <> empty then begin
    t.count <- t.count - 1;
    let hole = ref i and j = ref ((i + 1) land mask) in
    while Array.unsafe_get keys !j <> empty do
      let k = Array.unsafe_get keys !j in
      if (!j - home k mask) land mask >= (!j - !hole) land mask then begin
        Array.unsafe_set keys !hole k;
        Array.unsafe_set vals !hole (Array.unsafe_get vals !j);
        hole := !j
      end;
      j := (!j + 1) land mask
    done;
    Array.unsafe_set keys !hole empty
  end

let length t = t.count

let clear t =
  if t.count > 0 then begin
    Array.fill t.keys 0 (Array.length t.keys) empty;
    t.count <- 0
  end
