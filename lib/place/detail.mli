(** Detailed placement: HPWL-greedy local refinement on a legal placement.

    Three move types, alternated for a bounded number of passes:

    - {b window reorder}: every window of three consecutive cells in a row
      is tried in all six orders (repacked at the window's left edge, which
      preserves legality because the total width is invariant);
    - {b global swap}: cells of equal width exchange positions across rows
      when that lowers the HPWL of their incident nets;
    - {b global move}: a cell outside the median interval of its incident
      nets is moved into a free gap near that interval.

    Every pass is evaluate-parallel/commit-serial: worker domains score
    candidates with the read-only {!Dpp_wirelen.Netbox.eval_moves}
    against the committed coordinate snapshot (rows chunked for reorder,
    candidate pairs/cells chunked for swap and move), then a serial phase
    re-stages proposals transactionally in ascending chunk order and
    re-checks the delta against the then-current state, committing only
    the still-improving ones — so the weighted HPWL is monotonically
    non-increasing and the result is bit-identical at every worker
    count.  The move pass finds gaps through the sorted {!Occ} occupancy
    index instead of walking per-row lists.

    Cells matched by [skip] (snapped datapath group members in the
    structure-aware flow) are never moved; neither are movable cells
    taller than one row (they would overlap the adjacent row). *)

type stats = {
  passes : int;
  reorder_gain : float;  (** weighted HPWL improvement from window reorders *)
  swap_gain : float;  (** weighted HPWL improvement from swaps and moves *)
  moves : int;
}

val run :
  Dpp_netlist.Design.t ->
  ?pool:Dpp_par.Pool.t ->
  ?max_passes:int ->
  ?skip:(int -> bool) ->
  ?bound:Dpp_geom.Rect.t ->
  netbox:Dpp_wirelen.Netbox.t ->
  legal:Legal.t ->
  unit ->
  stats
(** Mutates [legal.cx]/[legal.cy] in place.  Default [max_passes] is 3;
    a pass that improves nothing stops the loop early.

    [bound] (region-bounded mode, incremental ECO): the global-move pass
    only accepts candidate slots that keep the whole cell inside the
    rectangle, so re-detailed cells never leave the dirty region (reorder
    and swap already stay put — they permute existing slots of non-skipped
    cells).

    [netbox] {e must} have been built over the [legal.cx] / [legal.cy]
    arrays (the flow's shared context guarantees this); the passes read
    the flat view inside its pin view, including its cell<->net
    incidence. *)
