type problem = {
  n : int;
  eval : float array -> float;
  eval_grad : float array -> float array -> float;
  g : float array;
  g_prev : float array;
  d : float array;
  scratch : float array;
}

let problem ~n ~eval ~eval_grad =
  let vec () = Array.make n 0.0 in
  { n; eval; eval_grad; g = vec (); g_prev = vec (); d = vec (); scratch = vec () }

type options = {
  max_iter : int;
  grad_tol : float;
  f_tol : float;
  initial_step : float;
  project : (float array -> unit) option;
}

let default_options =
  {
    max_iter = 100;
    grad_tol = 1e-6;
    f_tol = 1e-9;
    initial_step = 1.0;
    project = None;
  }

type result = {
  f : float;
  iterations : int;
  grad_norm : float;
  converged : bool;
  f_evals : int;
}

let minimize ?(options = default_options) p x =
  if Array.length x <> p.n then invalid_arg "Nlcg.minimize: x size mismatch";
  (* every working vector is written before it is read, so nothing
     carries over from the problem's previous solve *)
  let { g; g_prev; d; scratch; _ } = p in
  (match options.project with Some proj -> proj x | None -> ());
  let f_evals = ref 0 in
  let eval x =
    incr f_evals;
    p.eval x
  in
  let eval_grad x g =
    incr f_evals;
    p.eval_grad x g
  in
  (* [scratch] holds the accepted pre-projection point; if projection left
     every coordinate unchanged, the line-search value is still exact at
     the new point (the objective is deterministic). *)
  let projection_moved x scratch =
    let moved = ref false in
    (try
       for i = 0 to p.n - 1 do
         if x.(i) <> scratch.(i) then begin
           moved := true;
           raise Exit
         end
       done
     with Exit -> ());
    !moved
  in
  let f = ref (eval_grad x g) in
  for i = 0 to p.n - 1 do
    d.(i) <- -.g.(i)
  done;
  let gnorm = ref (Vec.nrm_inf g) in
  let step_hint = ref options.initial_step in
  let iter = ref 0 in
  let converged = ref (!gnorm <= options.grad_tol) in
  let stalled = ref false in
  (* Take the line search's point: project it, move the gradient to
     [g_prev] and fill [g] at the new point in one fused pass.  The value
     is the line search's unless projection moved the point.  Returns the
     previous objective value. *)
  let accept (ls : Linesearch.result) =
    Vec.copy_into scratch x;
    let moved =
      match options.project with
      | Some proj ->
        proj x;
        projection_moved x scratch
      | None -> false
    in
    let f_old = !f in
    Vec.copy_into g g_prev;
    let fv = eval_grad x g in
    f := if moved then fv else ls.Linesearch.f_new;
    step_hint := max 1e-12 (2.0 *. ls.Linesearch.step);
    f_old
  in
  while (not !converged) && (not !stalled) && !iter < options.max_iter do
    let slope = Vec.dot g d in
    (* If CG produced an ascent direction, restart on steepest descent. *)
    let slope =
      if slope >= 0.0 then begin
        for i = 0 to p.n - 1 do
          d.(i) <- -.g.(i)
        done;
        Vec.dot g d
      end
      else slope
    in
    if slope >= 0.0 then stalled := true (* zero gradient, nothing to do *)
    else begin
      let ls = Linesearch.armijo ~f:eval ~x ~d ~f0:!f ~slope ~step0:!step_hint ~scratch () in
      let ls, restarted =
        if ls.Linesearch.ok then ls, false
        else begin
          (* Retry once from steepest descent with a unit-scaled step. *)
          for i = 0 to p.n - 1 do
            d.(i) <- -.g.(i)
          done;
          let slope = Vec.dot g d in
          ( Linesearch.armijo ~f:eval ~x ~d ~f0:!f ~slope
              ~step0:(1.0 /. max 1.0 (Vec.nrm_inf g))
              ~scratch (),
            true )
        end
      in
      if not ls.Linesearch.ok then stalled := true
      else begin
        let f_old = accept ls in
        if restarted then
          for i = 0 to p.n - 1 do
            d.(i) <- -.g.(i)
          done
        else begin
          (* Polak–Ribière+ beta. *)
          let gg_prev = Vec.dot g_prev g_prev in
          let beta =
            if gg_prev <= 0.0 then 0.0
            else begin
              let num = ref 0.0 in
              for i = 0 to p.n - 1 do
                num := !num +. (g.(i) *. (g.(i) -. g_prev.(i)))
              done;
              max 0.0 (!num /. gg_prev)
            end
          in
          for i = 0 to p.n - 1 do
            d.(i) <- -.g.(i) +. (beta *. d.(i))
          done
        end;
        gnorm := Vec.nrm_inf g;
        incr iter;
        if !gnorm <= options.grad_tol then converged := true
        else if abs_float (f_old -. !f) <= options.f_tol *. (abs_float f_old +. 1e-30) then
          converged := true
      end
    end
  done;
  { f = !f; iterations = !iter; grad_norm = !gnorm; converged = !converged; f_evals = !f_evals }
