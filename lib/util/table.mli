(** Fixed-width text tables for the benchmark harness output. *)

val render : header:string list -> string list list -> string
(** Render rows under a header with per-column widths; columns are separated
    by two spaces and a rule follows the header. The first column is
    left-aligned, the others right-aligned. *)

val print : title:string -> header:string list -> string list list -> unit
(** [render] preceded by a title banner, written to stdout. *)

val fmt_float : float -> string
(** Compact float formatting for table cells (4 significant digits). *)

val fmt_pct : float -> string
(** Percentage with one decimal and a trailing [%]. *)
