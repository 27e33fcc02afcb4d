(** Constant names kept for the benchmark in [perfbench/].

    No simulation result is cached: every run recomputes. The benchmark
    still reads these names, for its [ditto_memo=] environment line and
    its [memo.hits] metric. *)

type stats = { hits : int }
(** Returned by [Ditto_app.Runner.measure_memo_stats], always with
    [hits = 0]. Exists only for [perfbench/]. *)

val enabled : unit -> bool
(** Always [false]. Exists only for [perfbench/]. *)
