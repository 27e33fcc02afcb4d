(* Tournament predictor (Alpha 21264-style): a per-branch local-history
   predictor — which captures the periodic bitmask patterns synthetic and
   kernel branches exhibit — competes with a gshare global predictor, with
   a per-branch meta chooser. A BTB models target-buffer capacity, so large
   code footprints still pay resteers on taken branches. *)

type t = {
  gshare : int array; (* 2-bit counters *)
  gshare_mask : int;
  local_hist : int array; (* per-branch local history *)
  local_mask : int;
  local_pattern : int array; (* 2-bit counters indexed by local history *)
  pattern_mask : int;
  meta : int array; (* 2-bit chooser: >=2 prefers local *)
  btb : int array;
  btb_mask : int;
  mutable history : int;
  mutable dirty : bool;
}

let rec pow2_at_least n k = if k >= n then k else pow2_at_least n (k * 2)

(* Bits of global history gshare hashes into its index. *)
let history_bits = 12

let create ~entries ~btb_entries () =
  let entries = pow2_at_least (max 2 entries) 2 in
  let btb_entries = pow2_at_least (max 2 btb_entries) 2 in
  let local_entries = max 2 (entries / 4) in
  let pattern_entries = max 2 entries in
  {
    gshare = Array.make entries 1;
    gshare_mask = entries - 1;
    local_hist = Array.make local_entries 0;
    local_mask = local_entries - 1;
    local_pattern = Array.make pattern_entries 1;
    pattern_mask = pattern_entries - 1;
    meta = Array.make local_entries 2;
    btb = Array.make btb_entries (-1);
    btb_mask = btb_entries - 1;
    history = 0;
    dirty = false;
  }

let btb_lookup_update t pc =
  t.dirty <- true;
  let idx = (pc lsr 2) land t.btb_mask in
  let hit = Array.unsafe_get t.btb idx = pc in
  if not hit then Array.unsafe_set t.btb idx pc;
  hit

(* Saturating 2-bit update; int compares, not the polymorphic [min]/[max]
   (which call the generic compare on every predictor lookup). *)
let train counter taken =
  if taken then if counter >= 3 then 3 else counter + 1
  else if counter <= 0 then 0
  else counter - 1

(* All indices below are masked into range, so the predictor tables are
   read and trained without bounds checks. *)
let predict_and_update t ~pc ~taken =
  t.dirty <- true;
  let gidx = ((pc lsr 2) lxor t.history) land t.gshare_mask in
  let lidx = (pc lsr 2) land t.local_mask in
  let lhist = Array.unsafe_get t.local_hist lidx in
  let pidx = (lhist lxor (pc lsr 2)) land t.pattern_mask in
  let g_ctr = Array.unsafe_get t.gshare gidx in
  let l_ctr = Array.unsafe_get t.local_pattern pidx in
  let g_pred = g_ctr >= 2 in
  let l_pred = l_ctr >= 2 in
  let use_local = Array.unsafe_get t.meta lidx >= 2 in
  let predicted = if use_local then l_pred else g_pred in
  (* Train both components, the chooser, and the histories. *)
  Array.unsafe_set t.gshare gidx (train g_ctr taken);
  Array.unsafe_set t.local_pattern pidx (train l_ctr taken);
  (if g_pred <> l_pred then
     let local_right = l_pred = taken in
     Array.unsafe_set t.meta lidx (train (Array.unsafe_get t.meta lidx) local_right));
  Array.unsafe_set t.local_hist lidx (((lhist lsl 1) lor (if taken then 1 else 0)) land 1023);
  t.history <-
    ((t.history lsl 1) lor (if taken then 1 else 0)) land ((1 lsl history_bits) - 1);
  if predicted <> taken then `Mispredict
  else if taken && not (btb_lookup_update t pc) then `Btb_miss
  else `Correct

let note_unconditional t ~pc = if btb_lookup_update t pc then `Correct else `Btb_miss

let flush t =
  if t.dirty then begin
    Array.fill t.gshare 0 (Array.length t.gshare) 1;
    Array.fill t.local_hist 0 (Array.length t.local_hist) 0;
    Array.fill t.local_pattern 0 (Array.length t.local_pattern) 1;
    Array.fill t.meta 0 (Array.length t.meta) 2;
    Array.fill t.btb 0 (Array.length t.btb) (-1);
    t.history <- 0;
    t.dirty <- false
  end
