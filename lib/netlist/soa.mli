(** The flat structure-of-arrays netlist core.

    Every hot kernel in the flow — smooth wirelength gradients, bell
    density, RUDY congestion, the incremental net-box cache, and the
    legalization/detail/flip occupancy scans — iterates over this view:
    one plain [float array] (or [int array]) per field, plus CSR
    adjacency for both directions of the cell/net/pin incidence.  The
    boxed {!Types.cell}/{!Types.net}/{!Types.pin} records stay the
    canonical {e construction and I/O} representation ({!Builder},
    {!Bookshelf}, {!Validate}, the oracles); a [Soa.t] is derived from a
    {!Design.t} once per flow and kept authoritative from then on.

    {2 Compact backing}

    CSR connectivity and per-pin metadata are stored in
    {!Dpp_util.Compact} Bigarrays — int32 for pin/cell/net indices (4
    bytes per slot instead of 8), int8 for [kind]/[pin_dir], unboxed
    float64 for pin offsets.  The payloads live outside the OCaml heap,
    so the GC never scans the netlist's bulk.  Index values are plain
    [int]s at every accessor; {!of_design} fails fast with [Failure]
    when a design's pin count exceeds the int32 range (see
    {!guard_pin_count}).

    {2 Handles and index conventions}

    A handle is a bare [int]: cell ids, net ids and pin ids are exactly
    the indices of {!Design.t}'s dense entity arrays.  CSR adjacency
    follows the usual two-array convention — for nets,
    [net_pin.(net_pin_off.(n) .. net_pin_off.(n+1) - 1)] are net [n]'s
    pin ids {e in the net's original pin order}, so kernels ported from
    the record path accumulate floats in the identical order and produce
    bit-identical results.  The cell-side CSR ([cell_pin_off]/[cell_pin])
    preserves each cell's pin-list order the same way.

    The deduplicated cell<->net incidence is a second CSR pair:
    [net_cell] lists each net's distinct cells in ascending id order and
    [cell_net] each cell's nets in ascending id order (a net with two
    pins on one cell lists that cell once).  It is what extraction, QP
    initial placement, group snapping, detailed placement and coarsening
    walk; {!of_design} is the only code that builds it.

    {2 Aliasing contract}

    [x], [y] and [orient] {e alias} the source design's mutable arrays:
    the flat view and the record view always agree on live placement
    state, and in-place updates (the flip stage's orientation writes,
    {!Dpp_wirelen.Pins.apply_centers}) are visible through both.  All
    other arrays are private copies; mutating them does not write back.
    {!to_design} deep-copies everything, so the round trip
    [to_design (of_design d)] is field-for-field equal to [d] while
    sharing no mutable state with it. *)

type t = {
  name : string;
  die : Dpp_geom.Rect.t;
  row_height : float;
  site_width : float;
  num_rows : int;
  num_cells : int;
  num_nets : int;
  num_pins : int;
  cell_name : string array;
  cell_master : string array;  (** interned: one shared block per distinct master *)
  width : float array;  (** unoriented cell width, indexed by cell id *)
  height : float array;
  kind : Dpp_util.Compact.I8.t;
      (** {!kind_movable} / {!kind_fixed} / {!kind_pad} *)
  x : float array;  (** lower-left x — aliases [Design.x] *)
  y : float array;  (** lower-left y — aliases [Design.y] *)
  orient : Dpp_geom.Orient.t array;  (** aliases [Design.orient] *)
  cell_pin_off : Dpp_util.Compact.I32.t;
      (** cell->pin CSR offsets, length [num_cells + 1] *)
  cell_pin : Dpp_util.Compact.I32.t;  (** pin ids, cell pin-list order preserved *)
  net_name : string array;  (** shared with the design's net records, not copied *)
  net_weight : float array;
  net_pin_off : Dpp_util.Compact.I32.t;
      (** net->pin CSR offsets, length [num_nets + 1] *)
  net_pin : Dpp_util.Compact.I32.t;  (** pin ids, net pin-array order preserved *)
  pin_cell : Dpp_util.Compact.I32.t;  (** owning cell id per pin *)
  pin_net : Dpp_util.Compact.I32.t;  (** net id per pin, [-1] when unconnected *)
  pin_dir : Dpp_util.Compact.I8.t;  (** {!code_of_dir} codes *)
  pin_dx : Dpp_util.Compact.F64.t;
      (** offset from the cell's lower-left corner, N orientation *)
  pin_dy : Dpp_util.Compact.F64.t;
  net_cell_off : Dpp_util.Compact.I32.t;
      (** net->distinct-cell CSR offsets, length [num_nets + 1] *)
  net_cell : Dpp_util.Compact.I32.t;  (** cell ids, ascending and distinct per net *)
  cell_net_off : Dpp_util.Compact.I32.t;
      (** cell->net CSR offsets, length [num_cells + 1] *)
  cell_net : Dpp_util.Compact.I32.t;  (** net ids, ascending and distinct per cell *)
  groups : Groups.t list;
}

val of_design : Design.t -> t
(** Derive the flat view.  O(cells + nets + pins); [x]/[y]/[orient] are
    aliased (see the module contract), everything else is copied. *)

val to_design : t -> Design.t
(** Rebuild a record-view design.  Exact field-for-field inverse of
    {!of_design} (entity ids are the array indices, as {!Builder}
    guarantees); coordinate arrays are fresh copies. *)

val guard_pin_count : name:string -> int -> unit
(** The int32 CSR overflow gate: raises [Failure] with a counted-pins
    message when the total pin count does not fit an int32 offset slot.
    {!of_design} routes every design through it. *)

val kind_movable : int
val kind_fixed : int
val kind_pad : int
val code_of_kind : Types.cell_kind -> int
val kind_of_code : int -> Types.cell_kind

val code_of_dir : Types.direction -> int
(** [Input] = 0, [Output] = 1, [Inout] = 2 — the [pin_dir] int8 codes. *)

val dir_of_code : int -> Types.direction

val is_fixed : t -> int -> bool
(** Fixed cells and pads are immovable. *)

val num_cells : t -> int
val num_nets : t -> int
val num_pins : t -> int

val net_degree : t -> int -> int
(** Pins on the net. *)

val net_cell_count : t -> int -> int
(** Distinct cells on the net — at most {!net_degree}. *)

val iter_cells_of_net : t -> int -> (int -> unit) -> unit
(** The net's distinct cells in ascending order; allocation-free. *)

val iter_nets_of_cell : t -> int -> (int -> unit) -> unit
(** The cell's nets in ascending order; allocation-free. *)

val max_net_degree : t -> int
(** At least 1, so degree-sized scratch buffers are never empty. *)

val oriented_dims : t -> int -> float * float
(** Width and height of cell [i] at its current orientation. *)

val cell_rect : t -> int -> Dpp_geom.Rect.t
(** Bounding box of cell [i] at its current position and orientation —
    same values as {!Design.cell_rect}. *)

