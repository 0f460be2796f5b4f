module Soa = Dpp_netlist.Soa

(* [@inline] so [total] sums each net's length unboxed; callers in other
   modules get a real call and a boxed float. *)
let[@inline] net t ~cx ~cy n =
  let k = Pins.load_net t ~cx ~cy n in
  if k < 2 then 0.0
  else begin
    let xmin = ref t.Pins.scratch_x.(0) and xmax = ref t.Pins.scratch_x.(0) in
    let ymin = ref t.Pins.scratch_y.(0) and ymax = ref t.Pins.scratch_y.(0) in
    for i = 1 to k - 1 do
      let x = t.Pins.scratch_x.(i) and y = t.Pins.scratch_y.(i) in
      if x < !xmin then xmin := x;
      if x > !xmax then xmax := x;
      if y < !ymin then ymin := y;
      if y > !ymax then ymax := y
    done;
    !xmax -. !xmin +. !ymax -. !ymin
  end

let total t ~cx ~cy =
  let acc = ref 0.0 in
  let s = t.Pins.soa in
  let nn = Soa.num_nets s in
  for n = 0 to nn - 1 do
    let w = s.Soa.net_weight.(n) in
    acc := !acc +. (w *. net t ~cx ~cy n)
  done;
  !acc

let total_of_design d =
  let t = Pins.build d in
  let cx, cy = Pins.centers_of_design d in
  total t ~cx ~cy
