(** Nonlinear conjugate gradient (Polak–Ribière+ with automatic restarts)
    over a smooth unconstrained objective — the engine under global
    placement.  An optional projection hook keeps iterates inside the die. *)

type problem = {
  n : int;  (** number of variables *)
  eval : float array -> float;  (** objective value (the line search's probe) *)
  eval_grad : float array -> float array -> float;
      (** [eval_grad x g] fills [g] with the gradient at [x] and returns
          the objective value from the same sweep over the problem's
          kernels.  The value must be bit-identical to [eval x]: the
          optimizer takes the line search's value instead whenever the
          accepted point was not moved by the projection. *)
}

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
  x : float array;
  f : float;
  iterations : int;
  grad_norm : float;
  converged : bool;  (** a tolerance fired (as opposed to hitting max_iter or stalling) *)
  f_evals : int;  (** calls of [eval] and [eval_grad] *)
}

val minimize : ?arena:Dpp_util.Arena.t -> ?options:options -> problem -> float array -> result
(** [minimize p x0] starts from a copy of [x0].

    With [~arena], the five working vectors come from the arena instead
    of fresh allocation, making repeated solves of the same size (the GP
    round loop) allocation-free.  [result.x] is then an arena buffer:
    it remains valid only until the next [minimize] against the same
    arena — which may receive it back as its [x0] (the GP loop does
    exactly that).  Results are bit-identical with and without an
    arena. *)
