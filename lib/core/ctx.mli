(** The shared placement context threaded through the flow's stages.

    One [t] is allocated per flow, by {!Flow.context}: it owns the placed
    design copy, the two netlist views derived from it, the live
    coordinate arrays, and, from legalization onward, the
    {!Dpp_wirelen.Netbox} incremental-cost cache that the
    detailed-placement and flip stages evaluate their moves against.
    Stages communicate exclusively by mutating the context.

    {!create} is the only place a flow derives the input design's [soa]
    and [pins]; every stage hands them to its engine as required
    arguments.  An ECO op is one flow too: {!Eco.plan} reads the same
    views before the op's stages run on the context.  The flip stage
    mirrors pin offsets in place through the netbox, so the pin view
    stays valid after it. *)

type t = {
  design : Dpp_netlist.Design.t;  (** the placed copy being optimized *)
  config : Config.t;
  pool : Dpp_par.Pool.t;
      (** worker pool sized from [config.jobs], shared by every stage's
          cost kernels; {!Flow.run_ctx} shuts it down when the flow ends *)
  soa : Dpp_netlist.Soa.t;
      (** the flat structure-of-arrays view of [design], derived once at
          context creation and authoritative for every hot kernel; its
          [x]/[y]/[orient] arrays alias the design's, so in-place mutation
          (flips) stays visible through both views; it also carries the
          cell<->net incidence extraction, QP, snapping, detail and
          coarsening walk *)
  pins : Dpp_wirelen.Pins.t;  (** built once at context creation, over [soa] *)
  mutable cx : float array;  (** live cell centers — the current best placement *)
  mutable cy : float array;
  mutable netbox : Dpp_wirelen.Netbox.t option;
      (** incremental HPWL cache over [cx]/[cy]; [None] until first use,
          dropped by {!set_coords} *)
  mutable skip : int -> bool;  (** cells frozen by group snapping (or by ECO) *)
  mutable skip_ids : int array;
      (** the id set behind [skip], maintained by {!set_skip} so
          checkpoint snapshots can serialize the predicate *)
  mutable flip_skip : int -> bool;
      (** cells whose orientation must not change — identity in the full
          flow, the frozen clean set in incremental ECO re-placement *)
  mutable flip_skip_ids : int array;
  mutable bound : Dpp_geom.Rect.t option;
      (** dirty-region rectangle for incremental ECO re-placement;
          [None] (the full flow) leaves legalization and detailed
          placement unconstrained *)
  mutable obstacles : Dpp_geom.Rect.t list;  (** snapped group/macro outlines *)
  mutable legal : Dpp_place.Legal.t option;
  mutable groups_used : Dpp_netlist.Groups.t list;
  mutable extraction : (Dpp_extract.Slicer.result * Dpp_extract.Exmetrics.t) option;
  mutable dgroups : Dpp_structure.Dgroup.t list;
  mutable macro_dgs : Dpp_structure.Dgroup.t list;
  mutable rigid_dgs : Dpp_structure.Dgroup.t list;
  mutable soft_dgs : Dpp_structure.Dgroup.t list;
  mutable gp : Dpp_place.Gp.result option;
  mutable ml_levels : Dpp_coarsen.level list;
      (** the coarsening hierarchy the gp stage ran on ([[]] = flat GP);
          read by the gp-boundary cluster-integrity oracle, then cleared
          by the snap stage so the coarse designs and their views are
          not live through legalization, detail and metrics *)
  mutable gp_levels : Dpp_place.Gp.level_info list;
      (** per-level V-cycle solve records, ascending level order *)
  mutable detail_stats : Dpp_place.Detail.stats option;
  mutable flip_stats : Dpp_place.Flip.stats option;
  mutable steiner_final : float;
  mutable steiner : Dpp_steiner.Rsmt.nets;
      (** per-net Steiner lengths behind [steiner_final]: {!Dpp_steiner.Rsmt.empty}
          at creation, so a full flow recomputes every net.  An ECO
          installs its base placement's record here before any stage,
          and the metrics stage reuses each length whose pin coordinates
          are unchanged, then replaces the field with its own record *)
  mutable congestion : Dpp_congest.Rudy.stats option;
  mutable critical_delay : float;
}

val create : Dpp_netlist.Design.t -> Config.t -> t
(** Derives the flat and pin views and captures the design's current
    centers. *)

val set_skip : t -> int array -> unit
(** Install [skip] as membership in the given id set, recording the set
    in [skip_ids].  Stages must use this (not assign the closure
    directly) so {!Checkpoint.Snapshot} can persist the frozen set. *)

val set_flip_skip : t -> int array -> unit
(** Same, for the flip stage's exemption set. *)

val set_coords : t -> float array -> float array -> unit
(** Adopt new live coordinate arrays (e.g. a stage's output), dropping
    any netbox built over the old ones. *)

val netbox : t -> Dpp_wirelen.Netbox.t
(** The incremental cache over the current coordinates, built on first
    use after each {!set_coords}. *)

val hpwl : t -> float
(** Weighted HPWL at the current coordinates — O(1) off the netbox when
    one is live, a full rescan otherwise. *)
