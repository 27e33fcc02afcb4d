(** Collapsed-stack rendering of the measurement phase's per-tier stack
    tables ({!Ditto_app.Measure.tier_result.stacks}, concatenated over the
    tiers of a run).

    The on-disk format is one line per distinct stack,
    ["frame;frame;frame <count>"], with integer counts in microseconds of
    attributed time — directly consumable by Brendan Gregg's flamegraph.pl
    or inferno ([flamegraph.pl profile.folded > profile.svg]). *)

val write_collapsed : path:string -> (string list * float) list -> int
(** Write the collapsed-stack file, heaviest stack first; returns the
    number of lines written (stacks whose weight rounds to zero
    microseconds are dropped). *)

val print_top : n:int -> (string list * float) list -> unit
(** The [n] heaviest stacks as a {!Ditto_util.Table}: stack, ms and share
    of the total attributed time. *)
