(** Net classification for extraction.

    Datapath regularity shows up in two orthogonal net populations:
    {e data nets} (low fanout, linking one bit-slice's cells or neighbouring
    slices — carries) and {e control nets} (one pin on every slice at the
    same stage — op-selects, clocks, write-enables).  Degree is measured in
    distinct {e movable} cells, so pad-fed buses stay data nets. *)

type kind =
  | Data  (** low fanout; used for signature refinement and slice growth *)
  | Control  (** slice-spanning; used as column seeds *)
  | Ignored  (** degenerate (fewer than 2 movable cells) *)

type t = {
  kinds : kind array;  (** per net *)
  movable_degree : int array;  (** distinct movable cells per net *)
}

val classify : Dpp_netlist.Soa.t -> max_data_degree:int -> t
(** Nets with 2..[max_data_degree] movable cells are [Data]; with more,
    [Control]. *)

val kind : t -> int -> kind
