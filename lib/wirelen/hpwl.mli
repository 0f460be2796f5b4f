(** Half-perimeter wirelength — the exact (non-smooth) metric every table
    reports. *)

val net : Pins.t -> cx:float array -> cy:float array -> int -> float
(** Unweighted HPWL of one net (0 for degree < 2). *)

val total : Pins.t -> cx:float array -> cy:float array -> float
(** Net-weight-scaled sum over all nets. *)

val total_of_design : Dpp_netlist.Design.t -> float
(** Convenience: evaluates at the design's current placement. *)
