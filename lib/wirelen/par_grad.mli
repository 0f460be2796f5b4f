(** Domain-parallel evaluation of the LSE smooth wirelength.

    Nets are fanned out over the pool in fixed static chunks; each worker
    evaluates its nets with the {e exact} per-net serial kernel
    ({!Lse.axis_value_grad}) into per-net value slots and per-pin
    gradient slots, and the calling domain reduces those slots in the
    serial kernel's own order (nets ascending; per cell, pins ordered by
    net then position).

    The guarantee is therefore strict: for any worker count — including
    one — {!value} and {!value_grad} return {e bit-identical} floats to
    {!Lse.value} / {!Lse.value_grad}.  [test/test_par.ml] asserts this
    with [Float.equal] per element. *)

type t

val create : Dpp_par.Pool.t -> Pins.t -> t
(** Per-run state: one scratch view per worker (worker 0 reuses the given
    view) plus the per-net / per-pin fan-out buffers.  Use with the pool
    it was created for (or any pool with no more workers). *)

val value : t -> Dpp_par.Pool.t -> gamma:float -> cx:float array -> cy:float array -> float
(** Bit-identical to {!Lse.value} on the same inputs. *)

val value_grad :
  t ->
  Dpp_par.Pool.t ->
  gamma:float ->
  cx:float array ->
  cy:float array ->
  gx:float array ->
  gy:float array ->
  float
(** Bit-identical to {!Lse.value_grad}; gradients are accumulated into
    [gx]/[gy] exactly like the serial kernel (callers zero them). *)
