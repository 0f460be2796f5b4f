type result = { step : float; f_new : float; evaluations : int; ok : bool }

(* sufficient-decrease constant and backtracking factor *)
let c1 = 1e-4
let shrink = 0.5

let armijo ?(max_trials = 30) ~f ~x ~d ~f0 ~slope ~step0 ~scratch () =
  let n = Array.length x in
  if Array.length d <> n || Array.length scratch <> n then
    invalid_arg "Linesearch.armijo: size mismatch";
  let fill t =
    for i = 0 to n - 1 do
      scratch.(i) <- x.(i) +. (t *. d.(i))
    done
  in
  let trial t =
    fill t;
    f scratch
  in
  (* After the first Armijo-acceptable step, keep shrinking while that
     still improves the value: plain backtracking can otherwise accept a
     large "mirror" step that overshoots a valley to the far slope with a
     tiny decrease and then ping-pongs forever. *)
  let rec refine t ft k =
    if k >= max_trials then { step = t; f_new = ft; evaluations = k; ok = true }
    else begin
      let t' = t *. shrink in
      let ft' = trial t' in
      if Float.is_finite ft' && ft' < ft then refine t' ft' (k + 1)
      else begin
        (* restore scratch to the winning step: its value is already known,
           so this is a pure vector fill, not another objective pass *)
        fill t;
        { step = t; f_new = ft; evaluations = k + 1; ok = true }
      end
    end
  in
  let rec search t k =
    if k > max_trials then begin
      Vec.copy_into x scratch;
      { step = 0.0; f_new = f0; evaluations = k - 1; ok = false }
    end
    else begin
      let ft = trial t in
      if Float.is_finite ft && ft <= f0 +. (c1 *. t *. slope) then refine t ft k
      else search (t *. shrink) (k + 1)
    end
  in
  search step0 1
