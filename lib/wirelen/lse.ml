module Soa = Dpp_netlist.Soa
module I32 = Dpp_util.Compact.I32

(* Per-axis stable log-sum-exp over the scratch buffer [a.(0..k-1)]:
   returns (lse_plus + lse_minus) where
     lse_plus  = gamma * log sum exp(a_i / gamma)     = amax + gamma*log S+
     lse_minus = gamma * log sum exp(-a_i / gamma)    = -amin + gamma*log S-
   With [want_grad], [w] also receives the softmax gradient weights
     w_i = u_i/S+ - v_i/S-,  u_i = exp((a_i - amax)/gamma),  v_i = exp((amin - a_i)/gamma)
   and [u]/[v] cache the summation loop's exponentials for the gradient
   loop ([exp] dominates the kernel).

   Each distinct exponential is computed once.  For finite coordinates
   and gamma > 0, a pin at amax has u = exp(+-0) = 1 and a pin at amin
   has v = 1, and e = exp((amin - amax)/gamma) is both the u of every pin
   at amin and the v of every pin at amax: the same float expression
   (+0 and -0 differ only inside an exp that returns 1 for both).  A
   two-pin net costs one exp per axis instead of four, and the sums still
   run in pin order, so every float is the one the two-exp-per-pin form
   gives.

   [@inline]: the kernels below call it per net and axis, and inlined its
   float result stays unboxed.  Calls from other modules are real calls. *)
let[@inline] axis_value_grad (a : float array) k ~gamma ~(w : float array) ~(u : float array)
    ~(v : float array) ~want_grad =
  let amax = ref a.(0) and amin = ref a.(0) in
  for i = 1 to k - 1 do
    if a.(i) > !amax then amax := a.(i);
    if a.(i) < !amin then amin := a.(i)
  done;
  let amax = !amax and amin = !amin in
  let e = exp ((amin -. amax) /. gamma) in
  let splus = ref 0.0 and sminus = ref 0.0 in
  for i = 0 to k - 1 do
    let ai = a.(i) in
    let ui = if ai = amax then 1.0 else if ai = amin then e else exp ((ai -. amax) /. gamma) in
    let vi = if ai = amin then 1.0 else if ai = amax then e else exp ((amin -. ai) /. gamma) in
    if want_grad then begin
      u.(i) <- ui;
      v.(i) <- vi
    end;
    splus := !splus +. ui;
    sminus := !sminus +. vi
  done;
  if want_grad then
    for i = 0 to k - 1 do
      w.(i) <- (u.(i) /. !splus) -. (v.(i) /. !sminus)
    done;
  amax -. amin +. (gamma *. (log !splus +. log !sminus))

let value t ~gamma ~cx ~cy =
  let acc = ref 0.0 in
  let s = t.Pins.soa in
  let sx = t.Pins.scratch_x and sy = t.Pins.scratch_y in
  let w = t.Pins.scratch_w and u = t.Pins.scratch_u and v = t.Pins.scratch_v in
  for n = 0 to Soa.num_nets s - 1 do
    let k = Pins.load_net t ~cx ~cy n in
    if k >= 2 then begin
      let wn = s.Soa.net_weight.(n) in
      let vx = axis_value_grad sx k ~gamma ~w ~u ~v ~want_grad:false in
      let vy = axis_value_grad sy k ~gamma ~w ~u ~v ~want_grad:false in
      acc := !acc +. (wn *. (vx +. vy))
    end
  done;
  !acc

let value_grad t ~gamma ~cx ~cy ~gx ~gy =
  let acc = ref 0.0 in
  let s = t.Pins.soa in
  let sx = t.Pins.scratch_x and sy = t.Pins.scratch_y in
  let w = t.Pins.scratch_w and u = t.Pins.scratch_u and v = t.Pins.scratch_v in
  for n = 0 to Soa.num_nets s - 1 do
    let lo = Int32.to_int (I32.uget s.Soa.net_pin_off n) in
    let k = Pins.load_net t ~cx ~cy n in
    if k >= 2 then begin
      let wn = s.Soa.net_weight.(n) in
      let vx = axis_value_grad sx k ~gamma ~w ~u ~v ~want_grad:true in
      for i = 0 to k - 1 do
        let p = Int32.to_int (I32.uget s.Soa.net_pin (lo + i)) in
        let c = Int32.to_int (I32.uget t.Pins.pin_cell p) in
        gx.(c) <- gx.(c) +. (wn *. w.(i))
      done;
      let vy = axis_value_grad sy k ~gamma ~w ~u ~v ~want_grad:true in
      for i = 0 to k - 1 do
        let p = Int32.to_int (I32.uget s.Soa.net_pin (lo + i)) in
        let c = Int32.to_int (I32.uget t.Pins.pin_cell p) in
        gy.(c) <- gy.(c) +. (wn *. w.(i))
      done;
      acc := !acc +. (wn *. (vx +. vy))
    end
  done;
  !acc

let upper_bound_gap ~gamma ~degree = gamma *. log (float_of_int (max 1 degree))
