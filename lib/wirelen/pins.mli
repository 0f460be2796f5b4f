(** Precomputed pin geometry for the wirelength kernels.

    Global placement treats every cell as its center point plus fixed pin
    offsets, evaluated at the orientation each cell has when the structure
    is built (orientations are constant within an optimization phase; the
    flip pass mirrors the offsets in place).  This caches, per pin, the
    offset of the pin from its cell center, and carries the flat
    {!Dpp_netlist.Soa} view the hot kernels iterate — model evaluation
    never touches the cell records. *)

type t = {
  soa : Dpp_netlist.Soa.t;  (** the flat netlist view the kernels scan *)
  pin_cell : Dpp_util.Compact.I32.t;  (** owning cell per pin (aliases [soa.pin_cell]) *)
  off_x : float array;  (** pin x offset from cell center *)
  off_y : float array;
  scratch_x : float array;  (** per-net pin coordinate buffers, max degree long *)
  scratch_y : float array;
  scratch_w : float array;  (** softmax weight buffer for gradients *)
  scratch_u : float array;  (** per-pin exp caches for the LSE kernel *)
  scratch_v : float array;
}

val of_soa : Dpp_netlist.Soa.t -> t
(** Build the pin view over an existing flat core — the flow's path: the
    context derives one {!Dpp_netlist.Soa.t} and every kernel shares it. *)

val build : Dpp_netlist.Design.t -> t
(** [build d = of_soa (Soa.of_design d)] — convenience for tests and
    standalone tools. *)

val max_net_degree : t -> int

val clone_scratch : t -> t
(** A view sharing the flat core, pin-ownership and offset arrays but
    owning fresh scratch buffers — one per worker domain, so parallel
    kernels can evaluate different nets concurrently.  Offsets stay shared
    on purpose: the flip stage's in-place mirroring remains visible to
    every view. *)

val flip_cell_x : t -> int -> unit
(** Mirror cell [i]'s pin x offsets in place — the pin-view effect of an
    [N] <-> [FN] orientation change, identical to what a committed
    {!Netbox.flip_cell} applies.  For callers that adopt an orientation
    array {e before} any netbox exists (checkpoint resume); the caller
    must keep [design.orient] in step. *)

val load_net : t -> cx:float array -> cy:float array -> int -> int
(** Copy the pin coordinates of net [n] into the scratch buffers; returns
    the pin count.  Pins are ordered as in the net's pin array, and pin
    [p] of cell [c] sits at [cx.(c) +. off_x.(p)], [cy.(c) +. off_y.(p)]. *)

val centers_of_design : Dpp_netlist.Design.t -> float array * float array
(** Current cell-center coordinate arrays (fresh). *)

val apply_centers : Dpp_netlist.Design.t -> float array -> float array -> unit
(** Write center coordinates back into the design's lower-left storage for
    movable cells only (fixed cells and pads are never moved). *)
