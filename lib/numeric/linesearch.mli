(** Backtracking Armijo line search used by the nonlinear CG optimizer. *)

type result = { step : float; f_new : float; evaluations : int; ok : bool }

val armijo :
  ?max_trials:int ->
  f:(float array -> float) ->
  x:float array ->
  d:float array ->
  f0:float ->
  slope:float ->
  step0:float ->
  scratch:float array ->
  unit ->
  result
(** Find [t] with [f(x + t d) <= f0 + 1e-4 t slope], starting at [step0]
    and halving it up to [max_trials] (default 30) times; after the first
    acceptable step the search keeps halving while that strictly improves
    the value (guarding against accepted valley-overshooting steps that
    merely graze the Armijo bound).  [slope] must be the directional
    derivative [g . d] (negative for a descent direction).  [scratch] must
    have the same length as [x]; it holds the trial point to avoid
    allocation and contains [x + t d] for the returned [t] on success.
    [ok = false] means no acceptable step was found; [step] is then 0 and
    [scratch] equals [x]. *)
