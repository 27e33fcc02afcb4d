type replacement = Lru | Plru

let line_bytes = 64

type t = {
  replacement : replacement;
  sets : int;
  assoc : int;
  size_bytes : int;
  (* Precomputed at [create] so the per-access path never re-derives them:
     tree-PLRU only applies to power-of-two associativities >= 2, and the
     tree depth is log2(assoc). *)
  use_plru : bool;
  plru_levels : int;
  tags : int array; (* sets * assoc; -1 = invalid *)
  stamps : int array; (* LRU timestamps, parallel to [tags] *)
  plru : int array; (* per-set tree bits *)
  mutable tick : int;
  (* Set on the first state-changing operation since the last flush, so
     [flush] can skip the (large) array fills on caches a run never
     touched — most private caches of a many-core machine stay pristine. *)
  mutable dirty : bool;
}

let rec pow2_at_least n k = if k >= n then k else pow2_at_least n (k * 2)

let is_pow2 n = n land (n - 1) = 0

let create ?(replacement = Lru) ~size_bytes ~assoc () =
  if assoc <= 0 then invalid_arg "Cache.create: assoc";
  let sets = pow2_at_least (max 1 (size_bytes / (line_bytes * assoc))) 1 in
  let levels = ref 1 and tmp = ref assoc in
  while !tmp > 2 do
    incr levels;
    tmp := !tmp / 2
  done;
  {
    replacement;
    sets;
    assoc;
    size_bytes;
    use_plru = replacement = Plru && is_pow2 assoc && assoc >= 2;
    plru_levels = !levels;
    tags = Array.make (sets * assoc) (-1);
    stamps = Array.make (sets * assoc) 0;
    plru = Array.make sets 0;
    tick = 0;
    dirty = false;
  }

let size_bytes t = t.size_bytes
let assoc t = t.assoc
let sets t = t.sets

(* line_bytes = 64; addresses are non-negative, so the divisions are
   logical shifts. *)
let set_of t addr = (addr lsr 6) land (t.sets - 1)
let tag_of addr = addr lsr 6

(* First way in [w, stop) of the flat tag array holding [tag], or -1.
   Indices are in range by construction ([set] is masked, [w < assoc]), so
   the way scan — the single hottest loop in the cache model — skips
   bounds checks. A top-level function rather than a local closure, so a
   lookup allocates nothing; the annotations keep the compare on ints
   rather than the polymorphic compare. *)
let rec scan (tags : int array) (tag : int) (w : int) (stop : int) =
  if w >= stop then -1
  else if Array.unsafe_get tags w = tag then w
  else scan tags tag (w + 1) stop

let find_way t set tag =
  let base = set * t.assoc in
  let w = scan t.tags tag base (base + t.assoc) in
  if w < 0 then -1 else w - base

(* Tree-PLRU: follow the direction bits down a (log2 assoc)-deep tree to the
   victim leaf; touching a way repoints the bits on its path away from it. *)
let plru_touch t set way =
  let bits = ref t.plru.(set) in
  let node = ref 0 in
  for level = t.plru_levels - 1 downto 0 do
    let dir = (way lsr level) land 1 in
    (* Point away from the accessed way. *)
    if dir = 1 then bits := !bits land lnot (1 lsl !node) else bits := !bits lor (1 lsl !node);
    node := (2 * !node) + 1 + dir
  done;
  t.plru.(set) <- !bits

let plru_victim t set =
  let bits = t.plru.(set) in
  let node = ref 0 and way = ref 0 in
  for _ = 1 to t.plru_levels do
    let dir = (bits lsr !node) land 1 in
    way := (2 * !way) + dir;
    node := (2 * !node) + 1 + dir
  done;
  !way

let lru_victim t set =
  let base = set * t.assoc in
  let victim = ref 0 and oldest = ref max_int in
  for w = 0 to t.assoc - 1 do
    if Array.unsafe_get t.tags (base + w) = -1 then begin
      (* Prefer an invalid way outright. *)
      if !oldest > -1 then begin
        oldest := -1;
        victim := w
      end
    end
    else if !oldest >= 0 && Array.unsafe_get t.stamps (base + w) < !oldest then begin
      oldest := Array.unsafe_get t.stamps (base + w);
      victim := w
    end
  done;
  !victim

let touch t set way =
  t.tick <- t.tick + 1;
  Array.unsafe_set t.stamps ((set * t.assoc) + way) t.tick;
  if t.use_plru then plru_touch t set way

let access t addr =
  t.dirty <- true;
  let set = set_of t addr and tag = tag_of addr in
  let way = find_way t set tag in
  if way >= 0 then begin
    touch t set way;
    true
  end
  else begin
    let victim =
      if t.use_plru then begin
        (* Fill an invalid way first; only a full set consults the tree. *)
        let w = find_way t set (-1) in
        if w >= 0 then w else plru_victim t set
      end
      else lru_victim t set
    in
    t.tags.((set * t.assoc) + victim) <- tag;
    touch t set victim;
    false
  end

let probe t addr =
  let set = set_of t addr and tag = tag_of addr in
  find_way t set tag >= 0

let invalidate t addr =
  let set = set_of t addr and tag = tag_of addr in
  let way = find_way t set tag in
  if way >= 0 then begin
    t.dirty <- true;
    t.tags.((set * t.assoc) + way) <- -1;
    true
  end
  else false

let flush t =
  if t.dirty then begin
    Array.fill t.tags 0 (Array.length t.tags) (-1);
    Array.fill t.stamps 0 (Array.length t.stamps) 0;
    Array.fill t.plru 0 (Array.length t.plru) 0;
    t.tick <- 0;
    t.dirty <- false
  end
