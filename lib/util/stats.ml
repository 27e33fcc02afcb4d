type summary = {
  count : int;
  mean : float;
  std : float;
  min : float;
  max : float;
  p50 : float;
  p95 : float;
  p99 : float;
}

type t = {
  mutable data : float array;
  mutable len : int;
  mutable sum : float;
  mutable sumsq : float;
  mutable sorted : bool;
}

let create () =
  { data = Array.make 64 0.0; len = 0; sum = 0.0; sumsq = 0.0; sorted = true }

let add t x =
  if t.len = Array.length t.data then begin
    let bigger = Array.make (2 * t.len) 0.0 in
    Array.blit t.data 0 bigger 0 t.len;
    t.data <- bigger
  end;
  t.data.(t.len) <- x;
  t.len <- t.len + 1;
  t.sum <- t.sum +. x;
  t.sumsq <- t.sumsq +. (x *. x);
  t.sorted <- false

let count t = t.len
let mean t = if t.len = 0 then 0.0 else t.sum /. float_of_int t.len

let variance t =
  if t.len < 2 then 0.0
  else begin
    let n = float_of_int t.len in
    let m = t.sum /. n in
    Float.max 0.0 ((t.sumsq /. n) -. (m *. m))
  end

let std t = sqrt (variance t)

(* {1 Sorting}

   An LSD radix sort over IEEE-754 bit patterns, one 8-bit digit per pass.
   [key] maps a double's bits to an unsigned integer in the double's
   numeric order: a negative has every bit flipped, a positive only its
   sign bit. [compare] ranks NaN below every number, so NaNs are moved to
   the front first and the rest is sorted by key. The counts for all eight
   digits are taken in one pass, and a pass whose digit is the same for
   every element is skipped: it would only copy. Sorting [n] floats costs
   about nine passes over them, allocates its [n]-float buffer and its
   counters once, and boxes nothing. *)

let radix = 256
let passes = 8

let[@inline] key x =
  let b = Int64.bits_of_float x in
  Int64.logxor b (Int64.logor (Int64.shift_right b 63) Int64.min_int)

let[@inline] digit k pass = Int64.to_int (Int64.shift_right_logical k (8 * pass)) land (radix - 1)

(* Sort [a.(0) .. a.(n - 1)] in place, as [Array.sort compare] orders
   them. *)
let sort_prefix a n =
  let nans = ref 0 in
  for i = 0 to n - 1 do
    let x = a.(i) in
    if Float.is_nan x then begin
      a.(i) <- a.(!nans);
      a.(!nans) <- x;
      incr nans
    end
  done;
  let lo = !nans in
  if n - lo > 1 then begin
    let counts = Array.make (passes * radix) 0 in
    for i = lo to n - 1 do
      let k = key a.(i) in
      for p = 0 to passes - 1 do
        let c = (p * radix) + digit k p in
        counts.(c) <- counts.(c) + 1
      done
    done;
    let spare = Array.create_float n in
    let src = ref a and dst = ref spare in
    for p = 0 to passes - 1 do
      let base = p * radix in
      if counts.(base + digit (key (!src).(lo)) p) < n - lo then begin
        (* Each digit's count becomes the position of its first element. *)
        let next = ref lo in
        for d = base to base + radix - 1 do
          let c = counts.(d) in
          counts.(d) <- !next;
          next := !next + c
        done;
        let s = !src and t = !dst in
        for i = lo to n - 1 do
          let x = s.(i) in
          let c = base + digit (key x) p in
          let j = counts.(c) in
          counts.(c) <- j + 1;
          t.(j) <- x
        done;
        src := t;
        dst := s
      end
    done;
    if !src != a then Array.blit !src lo a lo (n - lo)
  end

let sort a = sort_prefix a (Array.length a)

let sort_in_place t =
  if not t.sorted then begin
    sort_prefix t.data t.len;
    t.sorted <- true
  end

let percentile_sorted data len q =
  if len = 0 then invalid_arg "Stats.percentile: empty";
  let q = Float.max 0.0 (Float.min 100.0 q) in
  let rank = q /. 100.0 *. float_of_int (len - 1) in
  let lo = int_of_float (Float.floor rank) in
  let hi = int_of_float (Float.ceil rank) in
  if lo = hi then data.(lo)
  else begin
    let frac = rank -. float_of_int lo in
    data.(lo) +. (frac *. (data.(hi) -. data.(lo)))
  end

let percentile t q =
  sort_in_place t;
  percentile_sorted t.data t.len q

let summary t =
  sort_in_place t;
  if t.len = 0 then
    { count = 0; mean = 0.; std = 0.; min = 0.; max = 0.; p50 = 0.; p95 = 0.; p99 = 0. }
  else
    {
      count = t.len;
      mean = mean t;
      std = std t;
      min = t.data.(0);
      max = t.data.(t.len - 1);
      p50 = percentile_sorted t.data t.len 50.0;
      p95 = percentile_sorted t.data t.len 95.0;
      p99 = percentile_sorted t.data t.len 99.0;
    }

let to_array t = Array.sub t.data 0 t.len

let clear t =
  t.len <- 0;
  t.sum <- 0.0;
  t.sumsq <- 0.0;
  t.sorted <- true

let mean_of xs =
  match xs with
  | [] -> 0.0
  | _ -> List.fold_left ( +. ) 0.0 xs /. float_of_int (List.length xs)

let percentile_of arr q =
  let copy = Array.copy arr in
  sort copy;
  percentile_sorted copy (Array.length copy) q

let ks_distance a b =
  if Array.length a = 0 || Array.length b = 0 then invalid_arg "Stats.ks_distance: empty";
  let a = Array.copy a and b = Array.copy b in
  sort a;
  sort b;
  let na = Array.length a and nb = Array.length b in
  let fa = float_of_int na and fb = float_of_int nb in
  (* Walk the merged value sequence; at each distinct value compare the two
     empirical CDFs after consuming all elements <= that value (ties must
     advance both sides together). *)
  let rec go i j best =
    if i >= na && j >= nb then best
    else begin
      let v =
        if i >= na then b.(j)
        else if j >= nb then a.(i)
        else Float.min a.(i) b.(j)
      in
      let rec eat arr n k = if k < n && arr.(k) <= v then eat arr n (k + 1) else k in
      let i = eat a na i and j = eat b nb j in
      let d = Float.abs ((float_of_int i /. fa) -. (float_of_int j /. fb)) in
      go i j (Float.max best d)
    end
  in
  go 0 0 0.0

let mape ~actual ~predicted =
  if Array.length actual <> Array.length predicted then
    invalid_arg "Stats.mape: length mismatch";
  let total = ref 0.0 and n = ref 0 in
  Array.iteri
    (fun i a ->
      if a <> 0.0 then begin
        total := !total +. (Float.abs (predicted.(i) -. a) /. Float.abs a);
        incr n
      end)
    actual;
  if !n = 0 then 0.0 else 100.0 *. !total /. float_of_int !n
