(** Nonlinear conjugate gradient (Polak–Ribière+ with automatic restarts)
    over a smooth unconstrained objective — the engine under global
    placement.  An optional projection hook keeps iterates inside the die. *)

type problem = {
  n : int;  (** number of variables *)
  eval : float array -> float;  (** objective value *)
  grad : float array -> float array -> unit;  (** [grad x g] fills [g] *)
  eval_grad : (float array -> float array -> float) option;
      (** optional fused pass: [eval_grad x g] fills [g] and returns the
          objective value in one sweep over the problem's kernels.  The
          value MUST be bit-identical to [eval x] — the optimizer
          substitutes one for the other freely. *)
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
  f_evals : int;
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
