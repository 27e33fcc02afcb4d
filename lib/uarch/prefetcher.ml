type entry = { mutable last_addr : int; mutable stride : int; mutable confidence : int }

type t = { entries : entry array; degree : int; mutable dirty : bool }

(* Stride-table entries; a power of two, so an index is a mask. *)
let table_entries = 64

let create ?(degree = 2) () =
  {
    entries = Array.init table_entries (fun _ -> { last_addr = -1; stride = 0; confidence = 0 });
    degree;
    dirty = false;
  }

let observe t ~pc ~addr fill =
  t.dirty <- true;
  let e = t.entries.((pc lsr 2) land (table_entries - 1)) in
  if e.last_addr >= 0 then begin
    let stride = addr - e.last_addr in
    if stride <> 0 && stride = e.stride then begin
      if e.confidence < 3 then e.confidence <- e.confidence + 1
    end
    else begin
      e.stride <- stride;
      e.confidence <- 0
    end;
    if e.confidence >= 2 && e.stride <> 0 then
      for k = 1 to t.degree do
        fill (addr + (k * e.stride))
      done
  end;
  e.last_addr <- addr

let flush t =
  if t.dirty then begin
    Array.iter
      (fun e ->
        e.last_addr <- -1;
        e.stride <- 0;
        e.confidence <- 0)
      t.entries;
    t.dirty <- false
  end
