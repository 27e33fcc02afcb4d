(** Tournament branch predictor (per-branch local-history + gshare with a
    meta chooser, Alpha 21264-style) and a branch target buffer.

    The paper observes that taken/not-taken rates, transition rates,
    instruction locality and static branch count all drive misprediction
    behaviour (§4.4.3); a gshare table captures rate/transition effects
    while the finite BTB captures code-footprint effects. *)

type t

val create : entries:int -> btb_entries:int -> unit -> t
(** [entries] and [btb_entries] are rounded up to powers of two; gshare
    hashes 12 bits of global history. *)

val predict_and_update : t -> pc:int -> taken:bool -> [ `Correct | `Mispredict | `Btb_miss ]
(** One prediction step for a conditional branch at [pc] whose actual
    outcome is [taken]: returns the frontend event and trains predictor and
    BTB. A [`Btb_miss] is a taken branch whose target was unknown — a
    cheaper resteer than a full mispredict. *)

val note_unconditional : t -> pc:int -> [ `Correct | `Btb_miss ]
(** Unconditional jumps/calls/returns miss only in the BTB. *)

val flush : t -> unit
