(** Congestion-stress preset for the routability loop: a narrow-channel
    design whose wirelength optimum is badly routable.

    A full-height fixed blocker splits the die at mid-x — a cell-free
    routing channel every cross wire must span.  [pairs] left/right cell
    pairs are wired by 2-pin cross nets across the channel.  Two anchor
    nets with decoupled axes hold each cell: a strong 3-pin net to the
    corner pads of its side (bounding box spans the full die height, so
    it is a pure horizontal pull that keeps the cell from being dragged
    across the channel to its partner), and a weak 2-pin net to a
    mid-height pad on the same side — the design's only vertical
    preference.  The quadratic init therefore stacks every pair at
    mid-height and a congestion-blind GP keeps the stack, piling the
    cross-net bounding boxes into one hot RUDY band across the channel.
    Vertical spreading — the congestion-driven fix — fights only the weak
    stacking nets, so its HPWL cost stays under 2% while the band's ACE
    congestion drops by over 20%.

    Deterministic in [seed]; carries no ground-truth groups.  Passes
    {!Dpp_netlist.Validate} with no errors. *)

val name : string
(** ["rt_channel"] *)

val build : ?seed:int -> ?pairs:int -> unit -> Dpp_netlist.Design.t
(** [seed] defaults to 1, [pairs] to 240 (480 movable cells).
    @raise Invalid_argument when [pairs < 2]. *)

val by_name : ?seed:int -> ?pairs:int -> string -> Dpp_netlist.Design.t option
(** [Some] design iff the name is {!name} — the hook {!Catalog.design}
    uses. *)
