(** Incremental ECO re-placement: apply a small edit list to an already
    placed design and re-run only the post-placement stages — legalize,
    detail, flip — inside the region the edits actually disturbed.

    The contract that makes the mode testable: every {e clean} cell (not
    in the dirty set) keeps its base position and orientation bit for bit
    — clean cells are frozen through the stage [skip] sets and their
    outlines become obstacles for the bounded stages — while the full
    result still passes every {!Dpp_check} legality oracle.  The dirty
    region is derived from the {!Dpp_wirelen.Netbox.dirty_nets} delta
    export: the coordinate edits are replayed through a netbox
    transaction against the base placement and the nets whose committed
    boxes moved (plus the rewired ones) bound the region.

    When the edits disturb more than [threshold] of the movable cells the
    incremental machinery would churn most of the die anyway, so {!run}
    falls back to the full flow on the edited design.

    An op pays for what its edits touched, not for the whole die: {!apply}
    copies the base netlist arrays rather than rebuilding them, and the
    metrics stage takes each net's Steiner length from the {!base} record
    whenever the net's pin coordinates are bit-identical to the base's,
    recomputing only the others. *)

(** One netlist/placement edit, id-referenced against the base design. *)
type edit =
  | Move of { cell : int; dx : float; dy : float }
      (** displace a cell's target position (composes across edits) *)
  | Resize of { cell : int; scale : float }
      (** scale a movable cell's width (snapped to the site grid) *)
  | Rewire of { net : int; pin_index : int; to_cell : int }
      (** move the [pin_index]-th pin of a net onto another cell (pin
          offset resets to the new cell's center) *)
  | Add of { near : int; w : float; nets : int list }
      (** a new single-row movable cell spawned at [near]'s position,
          with one pin on each listed net *)

val edit_to_json : edit -> Dpp_report.Json.t
val edit_of_json : Dpp_report.Json.t -> edit
(** @raise Dpp_report.Json.Parse_error on a malformed edit object. *)

val edits_to_json : edit list -> Dpp_report.Json.t
val edits_of_json : Dpp_report.Json.t -> edit list
(** The wire format the serve protocol carries edit lists in. *)

type applied = {
  edited : Dpp_netlist.Design.t;
      (** the edited copy: cell and net ids preserved, added cells
          appended; pins numbered in net order, each net's added pins
          after its base pins; each cell's [c_pins] in pin-id order *)
  seeds : int array;
      (** cells that {e must} re-place — moved, resized, or added.  Rewire
          endpoints keep a legal placement; their nets reach the plan
          through [struct_nets] instead, so distant fanout does not
          inflate the dirty region *)
  anchors : int array;
      (** seeds plus rewire targets and add sites — the cells whose
          outlines bound the dirty region's hull *)
  struct_nets : int array;  (** nets rewired or grown by an added pin *)
  moves : (int * float * float) list;  (** cell, dx, dy — net displacement *)
}

val apply : Dpp_netlist.Design.t -> edit list -> applied
(** Copy the netlist with the edits folded in, straight from the base
    arrays.  The numbering is the one a {!Dpp_netlist.Builder} gives when
    fed the base cells in id order, then the added cells ([eco_add_0],
    [eco_add_1], ...), then each net's pins in net order: the result is
    structurally equal to that path's.  A rewired or added pin sits at
    the centre of its cell, using the width after any resize.  The base
    design is not modified.  @raise Invalid_argument on an empty edit
    list, an edit referencing an out-of-range id (a resize of a
    non-movable cell, a non-positive scale or width), or an added cell
    whose name the base already uses. *)

type plan = {
  applied : applied;
  region : Dpp_geom.Rect.t;  (** row-aligned dirty region, clipped to the die *)
  dirty : int array;  (** movable single-row cells that get re-placed *)
  frozen : int array;  (** movable cells pinned at their base placement *)
  obstacles : Dpp_geom.Rect.t list;
      (** frozen outlines the bounded stages pack around *)
  dirty_fraction : float;  (** |dirty| / movables of the edited design *)
}

val plan : Ctx.t -> applied -> plan
(** Compute the dirty region and cell partition for applied edits, on a
    context over the edited design ({!Flow.context} of [applied.edited]):
    the coordinate edits are replayed through a netbox over the context's
    [pins], [cx] and [cy], and nothing in the context is modified.  The
    region starts two row heights around the disturbed hull and grows
    until the dirty cells fit (or the whole die is dirty).  Every movable
    single-row cell inside it is re-placed: snapped datapath groups of a
    structure-aware base are not protected. *)

type result = {
  flow : Flow.result;
  plan : plan;
  fallback : bool;  (** true when the dirty fraction forced a full re-place *)
}

val default_threshold : float
(** 0.25 — above a quarter of the movables dirty, re-place from scratch. *)

type base = {
  design : Dpp_netlist.Design.t;  (** a legally placed design *)
  steiner : Dpp_steiner.Rsmt.nets;
      (** the per-net Steiner record of the flow that placed [design]
          ({!Flow.result.steiner_nets}) *)
}
(** What an ECO is applied against: the placed design and the record its
    flow's metrics stage left. *)

val base_of_result : Flow.result -> base

val run :
  ?observer:(Dpp_report.Trace.stage -> unit) ->
  ?check:bool ->
  ?threshold:float ->
  base:base ->
  edit list ->
  Config.t ->
  result
(** Incrementally re-place [base.design] under the edit list.  One op
    applies the edits, validates the edited design and derives its views
    once ({!Flow.context}), plans on that context, and runs its stages on
    the same context ({!Flow.run_ctx}).  Below the dirty threshold these
    are {!Flow.eco_stages}, with the plan's region, skip sets, obstacles
    and [base.steiner] installed; above it, the full {!Flow.stages}, which
    start from an empty Steiner record and return what {!Flow.run} on
    [applied.edited] returns.  The metrics stage reuses a base length
    only for a net whose pin coordinates are bit-identical to the base's,
    so every figure equals a full recompute whatever record is passed; a
    record of another placement only costs time.  The reuse is keyed on
    coordinates, not on the dirty cells: the flip stage mirrors pin
    offsets in place, so the base flow's view and a fresh view of the
    same placement can differ in the last bits of a few nets.  [observer]
    and [check] behave as in {!Flow.run} (in check mode the full legality
    oracles hold from the legalize boundary on, clean region included,
    and the metrics boundary recomputes Steiner without reuse).
    @raise Flow.Invalid_design when the edited design fails validation. *)

val random_edits : ?ops:int -> seed:int -> Dpp_netlist.Design.t -> edit list
(** A deterministic, seeded edit list of [ops] edits (default 4), cycling
    move/resize/add/rewire and clustered around one random anchor cell so
    the dirty region stays a few percent of the die — the traffic shape
    the SRV bench, the fuzz harness, and the CI smoke job replay.
    @raise Invalid_argument when the design has no single-row movable
    cell. *)
