(** Bell-shaped smooth density potential (Kahng–Wang function, as used by
    NTUplace3).  Each movable cell [v] spreads its area over nearby bins
    through a C¹ bump

    {v
      theta(d) = 1 - 2 d^2 / R^2        for 0    <= d <= R/2
               = 2 (d - R)^2 / R^2      for R/2  <= d <= R
               = 0                      otherwise
    v}

    per axis, where [d] is the center distance to the bin center and
    [R = cell_extent/2 + bin_extent] is the influence radius.  The per-cell
    normaliser [C_v] makes the contributions sum to the cell area.  The
    penalty is [sum_b (phi_b - target_b)^2] with
    [target_b = target_density * capacity_b].

    The quadratic penalty and its analytic gradient are what the global
    placer adds as [lambda * D]. *)

type t

val of_soa : Dpp_netlist.Soa.t -> grid:Grid.t -> target_density:float -> t
(** The field over every movable cell of the flat view. *)

val create : Dpp_netlist.Design.t -> grid:Grid.t -> target_density:float -> t
(** [create d = of_soa (Soa.of_design d)] — for callers without a flat
    view; callers that hold one use {!of_soa}. *)

val grid : t -> Grid.t

val value : t -> cx:float array -> cy:float array -> float

val value_grad :
  t -> cx:float array -> cy:float array -> gx:float array -> gy:float array -> float
(** Gradients accumulate into [gx]/[gy]; fixed-cell slots stay untouched. *)

val bin_potential : t -> cx:float array -> cy:float array -> float array
(** The smoothed per-bin area field (fresh array), for inspection/tests. *)

val set_inflation : t -> float array -> unit
(** [set_inflation t factors] scales each movable cell's normaliser by
    [factors.(i)] (indexed by cell id, each finite and [>= 1.0]) over its
    uninflated base.  Since the normaliser makes a cell's bell
    contributions sum to its area, this is exactly the routability loop's
    virtual-area cell inflation: the density force sees a larger cell,
    geometry is untouched.  Factors are absolute (not cumulative): calling
    with all-ones is identical to {!reset_inflation}.  Mutations are
    visible to existing {!par} handles — both kernel families read the
    live normaliser on every evaluation.
    @raise Invalid_argument on a NaN/infinite or sub-1.0 factor. *)

val reset_inflation : t -> unit
(** Restore every normaliser to its uninflated base — the ledger-closing
    deflation at the end of a routability-driven solve.  After this the
    potential is bit-identical to a freshly built [t]. *)

val theta : r:float -> float -> float
(** The raw bump function, exposed for unit tests. *)

val theta_deriv : r:float -> float -> float
(** d(theta)/dd, exposed for gradient tests. *)

(** {2 Domain-parallel evaluation}

    The bell field is a scatter (many cells hit the same bin), so the
    parallel kernel accumulates into {!Dpp_par.Pool.chunk_count} fixed
    chunk-local bin fields and folds them per bin in ascending chunk
    order.  That makes {!par_value} / {!par_value_grad} {e bit-stable
    across worker counts} (the chunk layout never depends on the pool
    size) but not bit-equal to the serial {!value} / {!value_grad}, whose
    single accumulator sums in movable-cell order — which is why global
    placement always routes through the [par] kernels, even with one
    worker. *)

type par

val par_create : t -> par
(** Allocates the chunk-local bin fields ([chunk_count * nbins] floats). *)

val par_value : par -> Dpp_par.Pool.t -> cx:float array -> cy:float array -> float

val par_value_grad :
  par ->
  Dpp_par.Pool.t ->
  cx:float array ->
  cy:float array ->
  gx:float array ->
  gy:float array ->
  float
(** Same accumulate-into-[gx]/[gy] contract as {!value_grad}; per-cell
    slots are write-disjoint across workers. *)
