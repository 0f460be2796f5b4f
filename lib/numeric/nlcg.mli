(** Nonlinear conjugate gradient (Polak–Ribière+ with automatic restarts)
    over a smooth unconstrained objective — the engine under global
    placement.  An optional projection hook keeps iterates inside the die. *)

type problem
(** An objective over a fixed number of variables, together with the
    four working vectors {!minimize} runs on: the gradient, the previous
    gradient, the search direction and the line search's trial point.
    They are allocated once, by {!val-problem}, so a loop that solves the
    same problem round after round (the global placer's outer loop)
    allocates them once.  A problem serves one {!minimize} at a time. *)

val problem :
  n:int -> eval:(float array -> float) -> eval_grad:(float array -> float array -> float) -> problem
(** [problem ~n ~eval ~eval_grad] over [n] variables.  [eval x] is the
    objective value (the line search's probe).  [eval_grad x g] fills [g]
    with the gradient at [x] and returns the objective value from the
    same sweep over the problem's kernels.  That value must be
    bit-identical to [eval x]: the optimizer takes the line search's
    value instead whenever the accepted point was not moved by the
    projection. *)

type options = {
  max_iter : int;
  grad_tol : float;  (** stop when [||g||_inf <= grad_tol] *)
  f_tol : float;  (** stop when the relative decrease over an iteration falls below this *)
  initial_step : float;  (** first trial step of the very first line search *)
  project : (float array -> unit) option;
      (** in-place feasibility projection applied after every accepted step *)
}

val default_options : options
(** 100 iterations, [grad_tol 1e-6], [f_tol 1e-9], [initial_step 1.0],
    no projection. *)

type result = {
  f : float;
  iterations : int;
  grad_norm : float;
  converged : bool;  (** a tolerance fired (as opposed to hitting max_iter or stalling) *)
  f_evals : int;  (** calls of [eval] and [eval_grad] *)
}

val minimize : ?options:options -> problem -> float array -> result
(** [minimize p x] improves [x] (of length [n]) in place, starting from
    its current value (projected first when [options.project] is set).
    It allocates no vector: the working vectors are [p]'s. *)
