(** Per-run metric bundle: the quantities plotted in Figs. 5–11. *)

type t = {
  label : string;
  qps : float;  (** achieved request throughput *)
  ipc : float;
  branch_miss_rate : float;
  l1i_miss_rate : float;
  l1d_miss_rate : float;
  l2_miss_rate : float;
  llc_miss_rate : float;
  net_mbps : float;  (** NIC bytes moved per second of simulated time *)
  disk_mbps : float;
  lat_avg : float;  (** seconds *)
  lat_p95 : float;
  lat_p99 : float;
  counters : Ditto_uarch.Counters.t;
}

val error_pct : actual:t -> synthetic:t -> (string * float) list
(** Per-axis percentage error of the synthetic clone vs the original
    (axes with a zero actual value are skipped). *)

val latency_error_pct : actual:t -> synthetic:t -> (string * float) list
val pp_row : t -> string list
(** Cells: label qps ipc brMiss l1i l1d l2 llc net disk avg p95 p99. *)

val header : string list
