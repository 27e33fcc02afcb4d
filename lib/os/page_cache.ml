module Int_table = Ditto_util.Int_table

let page_bytes = 4096

(* LRU over page ids in flat int arrays. Slot [s] holds page [page.(s)]
   and its neighbours [prev.(s)]/[next.(s)] in recency order (-1 = none);
   [index] maps page -> slot. Slots 0..size-1 are in use: a miss takes the
   next free slot until the cache is full, then recycles the LRU slot.
   The slot arrays and the index grow with the pages actually touched, so
   a machine with a 48 GB cache pays only for what its run reads, and the
   per-page path allocates nothing once they have grown. *)
type t = {
  capacity : int; (* pages *)
  index : Int_table.t;
  mutable page : int array;
  mutable prev : int array;
  mutable next : int array;
  mutable head : int; (* most recent slot *)
  mutable tail : int; (* least recent slot *)
  mutable size : int;
  mutable lookups : int;
  mutable misses : int;
}

let initial_slots = 256

let create ~capacity_bytes =
  let capacity = max 1 (capacity_bytes / page_bytes) in
  let n = min capacity initial_slots in
  {
    capacity;
    index = Int_table.create (2 * n);
    page = Array.make n 0;
    prev = Array.make n (-1);
    next = Array.make n (-1);
    head = -1;
    tail = -1;
    size = 0;
    lookups = 0;
    misses = 0;
  }

let grow t =
  let n = min t.capacity (2 * Array.length t.page) in
  let extend a = Array.append a (Array.make (n - Array.length a) (-1)) in
  t.page <- extend t.page;
  t.prev <- extend t.prev;
  t.next <- extend t.next

let unlink t s =
  let p = Array.unsafe_get t.prev s and n = Array.unsafe_get t.next s in
  if p >= 0 then Array.unsafe_set t.next p n else t.head <- n;
  if n >= 0 then Array.unsafe_set t.prev n p else t.tail <- p

let push_front t s =
  Array.unsafe_set t.prev s (-1);
  Array.unsafe_set t.next s t.head;
  if t.head >= 0 then Array.unsafe_set t.prev t.head s else t.tail <- s;
  t.head <- s

(* Slots passed to the unsafe accessors come from [index], [head]/[tail]
   or [size], all of which stay below the arrays' length. *)
let touch_page t page =
  t.lookups <- t.lookups + 1;
  let s = Int_table.find t.index page in
  if s >= 0 then begin
    if s <> t.head then begin
      unlink t s;
      push_front t s
    end;
    true
  end
  else begin
    t.misses <- t.misses + 1;
    let s =
      if t.size >= t.capacity then begin
        let lru = t.tail in
        unlink t lru;
        Int_table.remove t.index (Array.unsafe_get t.page lru);
        lru
      end
      else begin
        if t.size = Array.length t.page then grow t;
        let s = t.size in
        t.size <- s + 1;
        s
      end
    in
    Array.unsafe_set t.page s page;
    Int_table.replace t.index page s;
    push_front t s;
    false
  end

let read t ~offset ~bytes =
  if offset < 0 then invalid_arg "Page_cache.read: negative offset";
  if bytes <= 0 then 0
  else begin
    let first = offset / page_bytes in
    let last = (offset + bytes - 1) / page_bytes in
    let missed = ref 0 in
    for p = first to last do
      if not (touch_page t p) then incr missed
    done;
    !missed * page_bytes
  end

let lookups t = t.lookups
let misses t = t.misses

let hit_rate t =
  if t.lookups = 0 then 0.0 else 1.0 -. (float_of_int t.misses /. float_of_int t.lookups)

let reset_stats t =
  t.lookups <- 0;
  t.misses <- 0

let flush t =
  Int_table.clear t.index;
  t.head <- -1;
  t.tail <- -1;
  t.size <- 0
