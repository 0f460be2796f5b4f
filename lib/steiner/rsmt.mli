(** Rectilinear Steiner minimal tree heuristic used as the routed-wirelength
    proxy in the evaluation tables.

    - degree 2: exact (Manhattan distance);
    - degree 3: exact (median-point star, a classical identity: the RSMT of
      three terminals equals their half-perimeter);
    - degree 4..10: iterated 1-Steiner over the Hanan grid (Kahng–Robins),
      within ~1% of optimal at these degrees;
    - degree > 10: falls back to the RMST (high-degree nets are control
      nets whose exact Steiner length matters little, and this mirrors how
      FLUTE-based flows break high-degree nets). *)

val length : (float * float) array -> float

val net_length : Dpp_wirelen.Pins.t -> cx:float array -> cy:float array -> int -> float
(** Steiner length of one net at the given cell centers. *)

val total : Dpp_wirelen.Pins.t -> cx:float array -> cy:float array -> float
(** Net-weighted total over the design. *)

type nets
(** Per-net Steiner lengths, each kept with the exact pin-coordinate
    sequence it was computed from: 16 bytes per pin and 8 per net,
    outside the OCaml heap, plus the net->pin offsets it shares with
    the netlist view it was measured over. *)

val empty : nets
(** The record of no net: {!measure} against it recomputes every net. *)

val measure :
  Dpp_wirelen.Pins.t -> cx:float array -> cy:float array -> reuse:nets -> nets * float
(** The record at the given cell centers, and its net-weighted total.  A
    net takes its length from [reuse] when [reuse] holds the same net id
    with the same pin count and bit-identical pin coordinates in the same
    order; every other net is recomputed.  Because the reuse is keyed on
    coordinates, not on which cells an edit touched, the total is
    [Float.equal] to {!total} at the same centers whatever [reuse] holds
    — the record of any earlier placement, of another design, or
    {!empty}.  The total sums [weight * length] in net order, exactly
    as {!total} does. *)

val total_of_design : Dpp_netlist.Design.t -> float
