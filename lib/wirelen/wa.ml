module Soa = Dpp_netlist.Soa
module I32 = Dpp_util.Compact.I32

(* Weighted-average on one axis over scratch [a.(0..k-1)].  Fills [w] with
   d(value)/d(a_i) when [want_grad].  [u]/[v] cache the per-pin exponentials
   of the summation loop so the gradient loop never recomputes them ([exp]
   dominates the kernel); the cached values are the exact floats the old
   recomputation produced, so results are bit-identical. *)
let axis_value_grad (a : float array) k ~gamma ~(w : float array) ~(u : float array)
    ~(v : float array) ~want_grad =
  let amax = ref a.(0) and amin = ref a.(0) in
  for i = 1 to k - 1 do
    if a.(i) > !amax then amax := a.(i);
    if a.(i) < !amin then amin := a.(i)
  done;
  let nmax = ref 0.0 and dmax = ref 0.0 in
  let nmin = ref 0.0 and dmin = ref 0.0 in
  for i = 0 to k - 1 do
    let ui = exp ((a.(i) -. !amax) /. gamma) in
    let vi = exp ((!amin -. a.(i)) /. gamma) in
    if want_grad then begin
      u.(i) <- ui;
      v.(i) <- vi
    end;
    nmax := !nmax +. (a.(i) *. ui);
    dmax := !dmax +. ui;
    nmin := !nmin +. (a.(i) *. vi);
    dmin := !dmin +. vi
  done;
  let f = !nmax /. !dmax in
  let g = !nmin /. !dmin in
  if want_grad then
    for i = 0 to k - 1 do
      let df = u.(i) *. (1.0 +. ((a.(i) -. f) /. gamma)) /. !dmax in
      let dg = v.(i) *. (1.0 -. ((a.(i) -. g) /. gamma)) /. !dmin in
      w.(i) <- df -. dg
    done;
  f -. g

let value t ~gamma ~cx ~cy =
  let acc = ref 0.0 in
  let s = t.Pins.soa in
  for n = 0 to Soa.num_nets s - 1 do
    let k = Pins.load_net t ~cx ~cy n in
    if k >= 2 then begin
      let wn = s.Soa.net_weight.(n) in
      let vx = axis_value_grad t.Pins.scratch_x k ~gamma ~w:t.Pins.scratch_w ~u:t.Pins.scratch_u ~v:t.Pins.scratch_v ~want_grad:false in
      let vy = axis_value_grad t.Pins.scratch_y k ~gamma ~w:t.Pins.scratch_w ~u:t.Pins.scratch_u ~v:t.Pins.scratch_v ~want_grad:false in
      acc := !acc +. (wn *. (vx +. vy))
    end
  done;
  !acc

let value_grad t ~gamma ~cx ~cy ~gx ~gy =
  let acc = ref 0.0 in
  let s = t.Pins.soa in
  for n = 0 to Soa.num_nets s - 1 do
    let lo = I32.uget s.Soa.net_pin_off n in
    let k = Pins.load_net t ~cx ~cy n in
    if k >= 2 then begin
      let wn = s.Soa.net_weight.(n) in
      let vx = axis_value_grad t.Pins.scratch_x k ~gamma ~w:t.Pins.scratch_w ~u:t.Pins.scratch_u ~v:t.Pins.scratch_v ~want_grad:true in
      for i = 0 to k - 1 do
        let c = I32.uget t.Pins.pin_cell (I32.uget s.Soa.net_pin (lo + i)) in
        gx.(c) <- gx.(c) +. (wn *. t.Pins.scratch_w.(i))
      done;
      let vy = axis_value_grad t.Pins.scratch_y k ~gamma ~w:t.Pins.scratch_w ~u:t.Pins.scratch_u ~v:t.Pins.scratch_v ~want_grad:true in
      for i = 0 to k - 1 do
        let c = I32.uget t.Pins.pin_cell (I32.uget s.Soa.net_pin (lo + i)) in
        gy.(c) <- gy.(c) +. (wn *. t.Pins.scratch_w.(i))
      done;
      acc := !acc +. (wn *. (vx +. vy))
    end
  done;
  !acc
