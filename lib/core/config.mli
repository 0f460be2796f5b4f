(** Flow configuration — the one record a user tweaks.

    [Baseline] is the structure-oblivious analytical placer (standing in
    for NTUplace3); [Structure_aware] is the paper's flow: extraction,
    alignment forces in GP, group snapping, structure-preserving
    legalization and detailed placement.

    What the record does not carry is fixed: extraction runs
    {!Dpp_extract.Slicer.default_config}, and GP takes its wirelength
    model (LSE), overflow target (0.08) and congestion thresholds from
    {!Dpp_place.Gp.default_config}. *)

type mode = Baseline | Structure_aware

type structure_style =
  | Rigid_macros
      (** groups become single macro variables in GP (exact arrays by
          construction) — the primary mode *)
  | Soft_alignment
      (** groups get the quadratic alignment penalty weighted by [beta];
          the ablation mode (and what oversized groups fall back to) *)

type ml_mode =
  | Ml_auto  (** multilevel GP when the design has more than 1500 movables *)
  | Ml_on
  | Ml_off

type t = {
  mode : mode;
  structure : structure_style;
  target_density : float;
  beta : float;  (** alignment weight knob (dimensionless, 1.0 nominal) *)
  min_coupling : float;
      (** groups whose {!Dpp_structure.Dgroup.internal_coupling} falls
          below this are not constrained at all (default 0.7) *)
  max_slice_span : float;
      (** groups whose {!Dpp_structure.Dgroup.slice_span} exceeds this are
          not constrained (butterfly wiring; default 1.5) *)
  gp_rounds : int;
  gp_inner_iters : int;
  detail_passes : int;
  seed : int;
  jobs : int;
      (** worker domains for the cost kernels (default 1).  The placement
          trajectory is independent of this value — see [Dpp_par.Pool]. *)
  multilevel : ml_mode;
      (** multilevel (coarsen → place → interpolate → refine) global
          placement; [Ml_auto] (the default) turns it on above 1500
          movable cells *)
  ml_min_cells : int;
      (** coarsening stops once a level has at most this many movables
          (default 500) *)
  ml_max_levels : int;  (** maximum coarse levels (default 3) *)
  routability : bool;
      (** congestion-driven GP: RUDY feedback inflates cells in overflowed
          bins (virtual area in the density model) and adds a congestion
          penalty to the gradient — see {!Dpp_place.Gp.config}.  Off by
          default; deterministic at every [jobs] value. *)
  rt_interval : int;  (** GP rounds between congestion steering updates (default 3) *)
}

val baseline : t
(** Density 0.9, 30 rounds x 60 iterations, 3 detail passes, seed 1. *)

val structure_aware : t
(** [baseline] with [mode = Structure_aware], [beta = 1.0]. *)

val multilevel_enabled : t -> movables:int -> bool
(** Whether a design with that many movable cells runs the multilevel
    V-cycle under this configuration. *)

val with_structure : structure_style -> t -> t
val with_beta : float -> t -> t
val mode_to_string : mode -> string
