(* No simulation result is cached: every run recomputes. These names stay
   only because the benchmark in perfbench/ reads them, for its
   [ditto_memo=] environment line and its [memo.hits] metric. *)

type stats = { hits : int }

let enabled () = false
