(** Structure-aware netlist coarsening for multilevel global placement.

    A {!level} maps a fine design onto a coarse one: every fine cell
    belongs to exactly one cluster, every cluster is one coarse cell.
    The first level seeds one cluster per datapath group ({!Dpp_structure.Dgroup})
    — a bit-slice is never split across clusters — then matches the
    remaining movable cells by heavy-edge scores over the cell<->net
    incidence of the fine level's {!Dpp_netlist.Soa} view,
    with an area cap and seeded deterministic tie-breaking.  Fixed cells
    and pads are preserved one-to-one.

    Determinism: all randomness comes from the caller's seed through
    {!Dpp_util.Rng}; building the same design with the same seed yields
    identical levels, independent of wall clock or worker count. *)

type level = {
  fine : Dpp_netlist.Design.t;
  coarse : Dpp_netlist.Design.t;
  coarse_soa : Dpp_netlist.Soa.t;
      (** the flat view of [coarse], derived once when the level is
          built: the next depth coarsens over it and the V-cycle solves
          the level through it *)
  cluster_of : int array;
      (** fine cell id -> coarse cell id; defined for {e every} fine
          cell (fixed cells map to their preserved singleton) *)
  members : int array array;
      (** coarse cell id -> fine member ids, ascending *)
  group_of : (int * Dpp_structure.Dgroup.t) list;
      (** coarse ids that collapse a whole datapath group, with the
          group they carry (its member order is the bit order) *)
  protected : bool array;
      (** coarse ids that must stay singletons at deeper levels (group
          clusters and clusters inherited from protected fine cells) *)
}

val build :
  ?groups:Dpp_structure.Dgroup.t list ->
  ?min_cells:int ->
  ?max_levels:int ->
  seed:int ->
  soa:Dpp_netlist.Soa.t ->
  Dpp_netlist.Design.t ->
  level list
(** [build ~groups ~seed ~soa d] is the coarsening hierarchy, matched
    over the cell<->net incidence of [soa] (the flat view of [d]) at the
    first level and over each level's [coarse_soa] below; finest level
    first ([levels.(k).coarse == levels.(k+1).fine]).  [groups] seeds
    the first level only (deeper levels keep those clusters intact as
    protected singletons).  Stops when the coarse design has at most
    [min_cells] movables (default 500), after [max_levels] levels
    (default 3), or when a level shrinks the movable count by less than
    10%.  A merged cluster's area stays within 4x the level's mean
    movable-cell area.  Returns [[]] when the design is already at or
    below the floor, or when its largest connected component of movable
    cells is itself at or below [min_cells] — a PEKO-style dust of tiny
    islands where heavy-edge matching degenerates; flat GP is the better
    start there. *)

val cluster_centers : level -> cx:float array -> cy:float array -> float array * float array
(** Area-weighted centroid of each cluster's members, evaluated over the
    fine center arrays — the upward (restriction) half of the V-cycle.
    Fixed singletons keep their fine centers. *)

val interpolate :
  level -> ccx:float array -> ccy:float array -> cx:float array -> cy:float array -> unit
(** The downward (prolongation) half: writes each movable member's
    center into the fine arrays [cx]/[cy] from its cluster's solved
    center [ccx]/[ccy].  Plain cluster members land on the cluster
    center; group clusters are re-seeded in bit order at their idealized
    array offsets from the cluster's (clamped) origin.  Fixed cells are
    left untouched. *)
