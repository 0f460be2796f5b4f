(** Weighted-average smooth wirelength (Hsu, Balabanov, Chang — the model
    the same authors introduced in their TSV placement line and proved to
    dominate log-sum-exp in modelling error).  Per net and axis,

    [W = sum x e^(x/gamma) / sum e^(x/gamma) - sum x e^(-x/gamma) / sum e^(-x/gamma)]

    which {e underestimates} HPWL and converges to it as [gamma -> 0].
    Implemented with the max/min-shift normalisation the TCAD'13 paper calls
    out as necessary for numerical stability. *)

val value : Pins.t -> gamma:float -> cx:float array -> cy:float array -> float

val value_grad :
  Pins.t ->
  gamma:float ->
  cx:float array ->
  cy:float array ->
  gx:float array ->
  gy:float array ->
  float
(** Same contract as {!Lse.value_grad}: gradients accumulate into [gx]/[gy]. *)

val axis_value_grad :
  float array ->
  int ->
  gamma:float ->
  w:float array ->
  u:float array ->
  v:float array ->
  want_grad:bool ->
  float
(** Same contract as {!Lse.axis_value_grad}: the per-net, per-axis kernel,
    exposed so {!Par_grad} and the batched gradient oracle reuse the exact
    serial arithmetic. *)
