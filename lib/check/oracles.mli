(** The oracle library: composable placement invariant checks, each
    returning a structured {!Violation.t} list (empty = invariant holds).

    Oracles are deliberately independent of the flow's context type so they
    can be applied to any design + coordinate pair — from the staged
    pipeline's [--check] mode, from the fuzz harness, or from user
    debugging sessions.  Coordinates are cell {e centers}, as everywhere in
    the placer. *)

val finite : Dpp_netlist.Design.t -> cx:float array -> cy:float array -> Violation.t list
(** Every movable cell's coordinates are finite (NaN/infinity poisoning is
    the cheapest-to-catch symptom of a numerical bug). *)

val overlap_bounds :
  ?tolerance:float ->
  Dpp_netlist.Design.t ->
  cx:float array ->
  cy:float array ->
  Violation.t list
(** No movable cell overlaps another movable or fixed cell, and every
    movable cell lies fully inside the die. *)

val row_site :
  ?tolerance:float ->
  Dpp_netlist.Design.t ->
  cx:float array ->
  cy:float array ->
  Violation.t list
(** Every movable cell sits exactly on a row and on the site grid — the
    post-legalization alignment invariant. *)

val legal :
  ?tolerance:float ->
  Dpp_netlist.Design.t ->
  cx:float array ->
  cy:float array ->
  Violation.t list
(** The full legality invariant: {!overlap_bounds} and {!row_site} in one
    audit pass. *)

val group_integrity :
  ?tol:float ->
  Dpp_netlist.Design.t ->
  Dpp_structure.Dgroup.t list ->
  cx:float array ->
  cy:float array ->
  Violation.t list
(** Each given (snapped) datapath group is an exact rigid array: members
    sit at their idealized offsets from a common origin (alignment error
    below [tol], default 1e-6), no member appears in two groups, and every
    member is inside the die. *)

val netbox_sync :
  ?pool:Dpp_par.Pool.t ->
  ?tol:float ->
  ?net_name:(int -> string) ->
  Dpp_wirelen.Netbox.t ->
  Violation.t list
(** The incremental HPWL cache agrees with a fresh rescan of the live
    coordinates: every committed per-net box and the running total
    ({!Dpp_wirelen.Netbox.audit}).  This is the oracle that catches stages
    writing to the shared coordinate arrays behind the cache's back. *)

val gradient :
  ?pool:Dpp_par.Pool.t ->
  ?samples:int ->
  ?eps:float ->
  ?tol:float ->
  seed:int ->
  gamma:float ->
  Dpp_netlist.Design.t ->
  Violation.t list
(** The analytic gradient of the LSE smooth wirelength matches a
    central finite difference on [samples] (default 12) randomly chosen
    movable coordinates (relative error below [tol], default 1e-3).
    Deterministic in [seed] — and in the pool size: samples land in
    per-sample slots reduced in a fixed order.  The difference is taken
    over the perturbed cell's incident nets only (everything else cancels
    exactly), so cost is O(local degree) per sample rather than a full
    objective evaluation; with [pool], the analytic gradient and the
    sample batch both fan out over the workers.  Evaluates at the
    design's current placement. *)

val congestion :
  ?pool:Dpp_par.Pool.t ->
  ?tol:float ->
  pins:Dpp_wirelen.Pins.t ->
  Dpp_netlist.Design.t ->
  stats:Dpp_congest.Rudy.stats ->
  cx:float array ->
  cy:float array ->
  Violation.t list
(** The stored congestion statistics agree with a freshly recomputed
    {!Dpp_congest.Rudy} map over the same coordinates (relative error
    below [tol], default 1e-9 — with the same pool the recomputation is
    bit-identical, so this catches stale stats, not float noise).  This is
    the oracle that catches a flow reporting congestion for coordinates a
    later mutation moved away from. *)

val steiner :
  pins:Dpp_wirelen.Pins.t -> total:float -> cx:float array -> cy:float array -> Violation.t list
(** The stored Steiner total is [Float.equal] to a fresh
    {!Dpp_steiner.Rsmt.total} over the same pin view and coordinates,
    recomputing every net.  This is the oracle that catches a reused
    per-net length whose net has in fact changed. *)

val rt_ledger : ?tol:float -> Dpp_place.Gp.rt_round list -> Violation.t list
(** Bookkeeping invariants of a routability-steering ledger
    ({!Dpp_place.Gp.result.rt_trace}): entries in round order; the
    [rt_best] envelope is exactly the running minimum of [rt_ace]
    (monotone non-increasing across the inflate/retry loop); outstanding
    virtual area is finite, non-negative and never exceeds the budget;
    and the final entry closes the ledger (zero virtual area, zero
    inflated cells — everything deflated at flow end).  The empty list is
    vacuously clean. *)

val validate : Dpp_netlist.Design.t -> Violation.t list
(** {!Dpp_netlist.Validate} errors lifted to violations, carrying the
    validator's named subjects (cell/net/group names, not bare indices). *)

val bookshelf_roundtrip : Dpp_netlist.Design.t -> Violation.t list
(** Write the design to a temporary directory in Bookshelf format, read it
    back, and compare: entity counts, per-cell name/master/kind/shape and
    position, per-net connected-pin multisets, and group membership.
    Unconnected pins are excluded from the comparison (the format cannot
    represent them; see {!Dpp_netlist.Bookshelf}).  Temporary files are
    always removed. *)

val cluster_integrity : ?tol:float -> Dpp_coarsen.level -> Violation.t list
(** Integrity of one coarsening level: the cluster/member maps form an
    exact partition of the fine cells (every fine cell in exactly one
    cluster, maps mutually inverse); movable clusters contain only
    movable cells and conserve member area within relative tolerance
    [tol] (default 1e-6) — group clusters own their idealized array
    footprint, so their member area may only fall {e below} it; fixed
    cells and pads survive as verbatim singletons (kind, shape,
    position); and every collapsed datapath group's cluster holds
    exactly the group's member set — no {!Dpp_structure.Dgroup} is ever
    split across clusters. *)
