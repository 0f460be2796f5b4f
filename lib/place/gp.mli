(** Nonlinear analytical global placement (NTUplace3-style).

    Minimises [W_lse(x, y; gamma) + lambda * D(x, y) + beta * A(x, y)]
    over movable-cell centers with nonlinear CG, where [W] is the
    log-sum-exp smooth wirelength ({!Dpp_wirelen.Lse}), [D] the
    bell-shaped density potential and [A] the datapath alignment potential
    ([beta = 0] recovers the structure-oblivious baseline).

    Outer loop: [lambda] starts at the gradient-norm ratio
    [|grad W| / |grad D|] (so wirelength and spreading forces start
    balanced) and doubles each round while [gamma] (initially half a
    {!Dpp_density.Grid.default_dims} bin extent) shrinks by 0.8; stops
    when the exact bin overflow falls below [overflow_target] or after
    [rounds].  [beta] is likewise normalised by [|grad W| / |grad A|] at
    the start, so the configuration value is a dimensionless knob (1.0 =
    alignment force comparable to wirelength force; the F3 ablation sweeps
    it). *)

type config = {
  target_density : float;
  rounds : int;  (** default 30 *)
  inner_iters : int;  (** NLCG iterations per round; default 60 *)
  overflow_target : float;  (** default 0.08 *)
  beta : float;  (** soft-alignment knob; 0 disables *)
  groups : Dpp_structure.Dgroup.t list;  (** soft groups (alignment penalty) *)
  rigid_groups : Dpp_structure.Dgroup.t list;
      (** rigid groups: each becomes a single macro variable — its members
          sit at exact array offsets from one movable origin, wirelength
          and density gradients summing onto that origin.  The primary
          structure-aware mode; [groups]+[beta] is the soft ablation. *)
  pool : Dpp_par.Pool.t;
      (** worker pool for the wirelength/density kernels; default
          {!Dpp_par.Pool.serial}.  Wirelength uses {!Dpp_wirelen.Par_grad}
          (bit-identical to serial) and density the chunk-merged
          {!Dpp_density.Bell} kernels (bit-stable across worker counts),
          so the trajectory is the same at every [jobs] value. *)
  routability : bool;
      (** congestion-driven placement: every round the {!Dpp_congest.Rudy}
          map is measured over the current coordinates (sharing the flow's
          pool and pin view), and every [rt_interval] rounds the loop (a)
          inflates cells in overflowed bins — virtual area only the density
          model sees, via {!Dpp_density.Bell.set_inflation}, deflating once
          the bin recovers, under a total budget — and (b) refreshes a
          per-bin congestion penalty [mu * sum_i area_i * C(x_i, y_i)],
          with [C] the bilinear interpolation of the per-bin excess
          [max 0 (demand/supply - rt_overflow)], held fixed between
          evaluations ([mu] renormalised to half the wirelength gradient
          norm at each refresh).  A density-feasible but congested iterate
          keeps the loop alive until the ACE excess clears or stalls.  All
          bookkeeping is serial in ascending cell order and the RUDY/bell
          kernels are chunk-merged, so the trajectory stays bit-identical
          at every [jobs] value.  The inflation ledger is closed (fully
          deflated) before [run] returns. *)
  rt_interval : int;  (** rounds between congestion steering updates; default 3 *)
  rt_overflow : float;  (** bin demand/supply ratio treated as congested; default 1.0 *)
  rt_max_inflate : float;
      (** total virtual-area budget as a fraction of the movable area;
          default 0.15.  When the per-cell updates (each clamped to 2x)
          exceed it, every cell's excess is scaled back uniformly. *)
}

val default_config : config
(** Target density 0.9, no alignment. *)

type round_info = {
  round : int;
  hpwl : float;
  overflow : float;
  gamma : float;
  lambda : float;
  objective : float;
  align_error : float;
}

type rt_round = {
  rt_round : int;  (** outer round the steering update ran after *)
  rt_max : float;  (** hottest-bin demand/supply at that point *)
  rt_ace : float;  (** ACE top-5% average ratio *)
  rt_overflowed : float;  (** fraction of bins over supply *)
  rt_best : float;  (** running minimum of [rt_ace] — non-increasing *)
  rt_inflated : int;  (** cells carrying virtual area after the update *)
  rt_virtual : float;  (** total virtual area outstanding *)
  rt_budget : float;  (** the budget [rt_virtual] is clamped under *)
}

type result = {
  cx : float array;
  cy : float array;
  trace : round_info list;  (** chronological *)
  final_overflow : float;
  final_hpwl : float;
  rt_trace : rt_round list;
      (** chronological routability-steering ledger; [[]] unless
          [routability] was on and at least one steering update ran.  The
          last entry is the ledger close: [rt_virtual = 0],
          [rt_inflated = 0] (everything deflated before return).  The
          [rt_best] envelope is non-increasing across entries — the
          inflate/retry loop's monotonicity contract, checked by
          [Check.rt_ledger]. *)
}

val run :
  pins:Dpp_wirelen.Pins.t ->
  Dpp_netlist.Design.t ->
  config ->
  cx:float array ->
  cy:float array ->
  result
(** [cx]/[cy] provide the start (typically {!Qp.run} output); they are not
    modified.

    [pins] is the pin view of [d] (the flow passes its context's); the
    kernels scan the flat view inside it.  Every round solves one
    {!Dpp_numeric.Nlcg.problem} built once per [run], so the rounds
    share its working vectors and improve one variable vector in place. *)

type level_info = {
  level : int;  (** 1 = first coarse level, larger = coarser *)
  movables : int;  (** movable cluster count at this level *)
  rounds_run : int;
  hpwl : float;  (** coarse-netlist HPWL after the level's solve *)
  overflow : float;
  wall_s : float;
}

type ml_result = { result : result; level_trace : level_info list }

val run_multilevel :
  pins:Dpp_wirelen.Pins.t ->
  Dpp_netlist.Design.t ->
  config ->
  levels:Dpp_coarsen.level list ->
  cx:float array ->
  cy:float array ->
  ml_result
(** Multilevel V-cycle over a {!Dpp_coarsen.build} hierarchy: restrict
    the start up to the coarsest level (area-weighted cluster centroids),
    solve each level coarsest-first with a reduced config (halved inner
    iterations, loosened overflow target, per-level density grids, no
    group machinery — group clusters are single cells there), interpolate
    cluster centers down (group slices re-seeded in bit order), and
    finish with a short flat refinement of the full config on [d] over
    [pins].  Each coarse level is solved through a pin view over its
    level's [coarse_soa].  With [levels = []] this is exactly {!run}.
    [routability] stays in force at every level: each per-level solve
    re-derives its inflation and congestion field from its own coarse
    netlist's RUDY map and closes its ledger before interpolation, so only
    coordinates cross levels — no stale virtual area is restricted or
    interpolated.  [trace] and [rt_trace] in [result] are the flat
    refinement's.  [level_trace] lists levels in ascending order (finest
    coarse level first).  Deterministic under the same contract as
    {!run}: the trajectory depends on the config and the hierarchy —
    never on the pool size. *)
