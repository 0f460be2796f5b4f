type problem = {
  n : int;
  eval : float array -> float;
  eval_grad : float array -> float array -> float;
}

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
  x : float array;
  f : float;
  iterations : int;
  grad_norm : float;
  converged : bool;
  f_evals : int;
}

let minimize ?arena ?(options = default_options) p x0 =
  if Array.length x0 <> p.n then invalid_arg "Nlcg.minimize: x0 size mismatch";
  (* With an arena the five working vectors are recycled across calls —
     the steady-state GP rounds' main residual allocation.  [x] is then
     an arena buffer too: it escapes in the result, and stays valid only
     until the next [minimize] against the same arena (the GP loop feeds
     it straight back in as the next round's start point). *)
  let alloc key =
    match arena with
    | Some a -> Dpp_util.Arena.floats a ("nlcg." ^ key) p.n
    | None -> Array.make p.n 0.0
  in
  (* raw: x is fully overwritten by the blit below, and the recycled
     buffer may BE [x0] (the previous call's result fed back in) — a
     zero-fill would destroy it before the copy *)
  let x =
    match arena with
    | Some a -> Dpp_util.Arena.floats_raw a "nlcg.x" p.n
    | None -> Array.make p.n 0.0
  in
  if x != x0 then Array.blit x0 0 x 0 p.n;
  (match options.project with Some proj -> proj x | None -> ());
  let g = alloc "g" in
  let g_prev = alloc "g_prev" in
  let d = alloc "d" in
  let scratch = alloc "scratch" in
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
  { x; f = !f; iterations = !iter; grad_norm = !gnorm; converged = !converged; f_evals = !f_evals }
