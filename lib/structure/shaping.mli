(** Post-GP group snapping: turn each (nearly aligned) group into an exact
    legal 2-D array, producing rigid obstacle rectangles the legalizer must
    respect.

    Groups are processed largest-first.  Each gets the least-squares origin
    of its members, rounded to the row/site grid and clamped in-die; then
    every overlap-free candidate on an outward spiral (up to a bounded
    radius) is scored by the {e actual HPWL of the group's incident nets}
    with the members test-placed there, and the best candidate wins — a
    first-feasible rule loses several percent of wirelength when arrays
    contend for the same region.  If no free spot exists the group is left
    unsnapped (logged, never fatal): it is absent from the returned list,
    its members keep their coordinates, and the ordinary legalizer places
    them.

    Groups whose footprint exceeds [max_die_fraction] of the die are
    {e not} snapped: a rigid block that large dictates the whole floorplan
    and reliably loses wirelength, so oversized groups stay "soft" (their
    alignment force shaped GP, and the ordinary legalizer takes them from
    there).  They are absent from the returned list. *)

type placed = {
  dgroup : Dgroup.t;
  origin_x : float;
  origin_y : float;
  rect : Dpp_geom.Rect.t;  (** occupied footprint *)
}

val snap :
  ?max_die_fraction:float ->
  ?extra_obstacles:Dpp_geom.Rect.t list ->
  pins:Dpp_wirelen.Pins.t ->
  Dpp_netlist.Design.t ->
  Dgroup.t list ->
  cx:float array ->
  cy:float array ->
  placed list
(** [max_die_fraction] defaults to 0.25; [extra_obstacles] are additional
    keep-out rectangles (e.g. already-snapped movable macros).  [pins] is
    the design's pin view; candidate spots are scored by the HPWL of each
    group's incident nets, found through its flat view's cell<->net
    incidence. *)

val apply : placed -> cx:float array -> cy:float array -> unit
(** Write the members' snapped center positions into the coordinate
    arrays. *)

val obstacles : placed list -> Dpp_geom.Rect.t list
