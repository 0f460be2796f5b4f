(** Legalization in one call: Tetris row assignment around fixed
    obstacles (and, in the structure-aware flow, around snapped datapath
    groups), then Abacus row packing.

    Cells are processed in ascending target-x order; each is offered a
    set of rows' free intervals ({!Intervals} stores, O(log n) best-gap
    queries) and takes the least-displacement feasible slot (squared
    Euclidean displacement of the cell center).  With a multi-worker
    pool, rows are partitioned into the fixed 16-chunk scheme and
    legalized chunk-locally in parallel; a cell whose best local slot
    could be beaten or tied by a row outside its chunk is spilled to a
    serial ascending-chunk merge pass that searches every row, so the
    assignment is bit-identical at every worker count.

    The last step is Abacus (Spindler–Schlichtmann–Johannes): within each
    free segment of each row, the assigned cells are re-placed at the
    minimum total squared displacement from their targets by cluster
    merging, then snapped to the site grid.  It runs serially over the
    free segments the row assignment computed, so obstacles are collected
    once per call. *)

type t = {
  assignment : int array;  (** cell -> row index (-1 for skipped/fixed cells) *)
  cx : float array;  (** legalized centers *)
  cy : float array;
  failed : int list;  (** cells that fit in no row (die overfull) *)
}

val run :
  Dpp_netlist.Design.t ->
  ?pool:Dpp_par.Pool.t ->
  ?extra_obstacles:Dpp_geom.Rect.t list ->
  ?skip:(int -> bool) ->
  ?bound:Dpp_geom.Rect.t ->
  soa:Dpp_netlist.Soa.t ->
  cx:float array ->
  cy:float array ->
  unit ->
  t
(** [skip] marks cells to leave untouched (snapped group members).  Input
    arrays are not modified; [cx] is also the packing's target.  [pool]
    (default {!Dpp_par.Pool.serial}) fans the chunk-local row assignment
    out over worker domains; the result does not depend on the worker
    count.  [soa] is the flat view of the design the sort keys and cell
    widths are read from.

    [bound] is the region-bounded mode behind incremental ECO
    re-placement: only rows overlapping the rectangle get free intervals
    and those are clipped to its x-span, so every non-skipped cell is
    assigned {e inside} the bound (pass the frozen cells' rectangles as
    [extra_obstacles] to keep them from being overlapped).  Packing works
    on the unclipped segments of the bound's rows.  The bounded run keeps
    the worker-count determinism contract. *)

val row_segments_for_test : Dpp_netlist.Design.t -> Dpp_geom.Rect.t list -> int -> (float * float) list
(** The free x-spans of a row given obstacle rectangles, as the row
    assignment and the packing see them. *)
