(** Incremental netlist construction.  The generator and the Bookshelf
    parser both target this API; {!finish} freezes everything into an
    immutable-shape {!Design.t}.

    Ids are handed out contiguously in creation order, so a builder-driven
    generator is fully deterministic.

    Staging uses flat arrays, one per field with the floats unboxed, grown
    by doubling; no per-cell, per-pin or per-net record exists before
    {!finish}, which lists each cell's pins in pin-id order by one
    counting sort. *)

type t

val create :
  ?name:string ->
  die:Dpp_geom.Rect.t ->
  row_height:float ->
  site_width:float ->
  unit ->
  t
(** @raise Invalid_argument if the die height is not a positive multiple of
    the row height (within 1e-6). *)

val set_die : t -> Dpp_geom.Rect.t -> unit
(** Replace the die outline (the generator sizes the die only after it
    knows the total cell area).  Same multiple-of-row-height constraint as
    {!create}. *)

val add_cell :
  t ->
  name:string ->
  master:string ->
  w:float ->
  h:float ->
  kind:Types.cell_kind ->
  int
(** Returns the new cell id.  Cell names must be unique.
    @raise Invalid_argument on a duplicate name or non-positive movable
    dimensions. *)

val add_pin : t -> cell:int -> dir:Types.direction -> ?dx:float -> ?dy:float -> unit -> int
(** Returns the new pin id.  Offsets default to the cell center. *)

val add_net : t -> ?name:string -> ?weight:float -> int list -> int
(** [add_net t pins] connects the given pin ids (each still unconnected)
    into a new net and returns its id.
    @raise Invalid_argument if a pin is already on a net or the list is
    empty. *)

val set_position : t -> int -> x:float -> y:float -> unit
(** Lower-left placement of a cell (e.g. for pads and fixed macros). *)

val set_orient : t -> int -> Dpp_geom.Orient.t -> unit

val add_group : t -> Groups.t -> unit
(** Attach a ground-truth datapath group (cell ids must already exist). *)

val cell_id : t -> string -> int option
(** Look up a cell by name. *)

val find_cell : t -> Bytes.t -> pos:int -> len:int -> int
(** The id of the cell named [Bytes.sub_string b pos len], or [-1] —
    allocation-free, so a streaming parser looks names up in its input
    buffer. *)

val cell_dims : t -> int -> float * float
(** Width and height of an already-added cell — lets a streaming parser
    convert center-relative pin offsets without keeping its own copy of
    the node table. *)

val num_cells : t -> int

val movable_area : t -> float
(** Total area of movable cells added so far (drives die sizing). *)

val num_nets : t -> int

val finish : t -> Design.t
(** Freeze.  The builder may not be used afterwards.
    @raise Invalid_argument if a group references an unknown cell id. *)
