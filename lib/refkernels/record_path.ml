(* Record-path reference kernels: the pre-SoA implementations of the hot
   kernels, preserved verbatim as the bit-equivalence oracle for the flat
   core (and as the baseline side of the XL speedup bench).  Nothing in
   the flow uses this library — it iterates boxed [Types.cell]/[net]/[pin]
   records exactly the way the production kernels did before the
   structure-of-arrays port, so "SoA result = record result, bitwise" is a
   meaningful statement.  Serial only: the parallel kernels were already
   chunk-order-defined and are gated by their own determinism tests. *)

module Rect = Dpp_geom.Rect
module Orient = Dpp_geom.Orient
module Design = Dpp_netlist.Design
module Types = Dpp_netlist.Types
module Grid = Dpp_density.Grid

(* ------------------------------------------------------------------ *)
(* Record-backed pin view (the old Dpp_wirelen.Pins)                   *)
(* ------------------------------------------------------------------ *)

module Rpins = struct
  type t = {
    design : Design.t;
    pin_cell : int array;
    off_x : float array;
    off_y : float array;
    scratch_x : float array;
    scratch_y : float array;
    scratch_w : float array;
  }

  let build (d : Design.t) =
    let np = Design.num_pins d in
    let pin_cell = Array.make np 0 in
    let off_x = Array.make np 0.0 in
    let off_y = Array.make np 0.0 in
    for p = 0 to np - 1 do
      let pin = Design.pin d p in
      let ci = pin.Types.p_cell in
      let c = Design.cell d ci in
      pin_cell.(p) <- ci;
      let dx, dy =
        Orient.apply_offset d.Design.orient.(ci) ~w:c.Types.c_width ~h:c.Types.c_height
          (pin.Types.p_dx, pin.Types.p_dy)
      in
      let ow, oh = Orient.apply d.Design.orient.(ci) ~w:c.Types.c_width ~h:c.Types.c_height in
      off_x.(p) <- dx -. (ow /. 2.0);
      off_y.(p) <- dy -. (oh /. 2.0)
    done;
    let max_deg =
      Array.fold_left
        (fun m (n : Types.net) -> max m (Array.length n.Types.n_pins))
        1 d.Design.nets
    in
    {
      design = d;
      pin_cell;
      off_x;
      off_y;
      scratch_x = Array.make max_deg 0.0;
      scratch_y = Array.make max_deg 0.0;
      scratch_w = Array.make max_deg 0.0;
    }

  let pin_x t ~cx p = cx.(t.pin_cell.(p)) +. t.off_x.(p)

  let pin_y t ~cy p = cy.(t.pin_cell.(p)) +. t.off_y.(p)

  let load_net t ~cx ~cy n =
    let pins = (Design.net t.design n).Types.n_pins in
    let k = Array.length pins in
    for i = 0 to k - 1 do
      let p = pins.(i) in
      t.scratch_x.(i) <- pin_x t ~cx p;
      t.scratch_y.(i) <- pin_y t ~cy p
    done;
    k
end

(* ------------------------------------------------------------------ *)
(* HPWL                                                                *)
(* ------------------------------------------------------------------ *)

let hpwl_net (t : Rpins.t) ~cx ~cy n =
  let k = Rpins.load_net t ~cx ~cy n in
  if k < 2 then 0.0
  else begin
    let xmin = ref t.Rpins.scratch_x.(0) and xmax = ref t.Rpins.scratch_x.(0) in
    let ymin = ref t.Rpins.scratch_y.(0) and ymax = ref t.Rpins.scratch_y.(0) in
    for i = 1 to k - 1 do
      let x = t.Rpins.scratch_x.(i) and y = t.Rpins.scratch_y.(i) in
      if x < !xmin then xmin := x;
      if x > !xmax then xmax := x;
      if y < !ymin then ymin := y;
      if y > !ymax then ymax := y
    done;
    !xmax -. !xmin +. !ymax -. !ymin
  end

let hpwl_total (t : Rpins.t) ~cx ~cy =
  let acc = ref 0.0 in
  let nn = Design.num_nets t.Rpins.design in
  for n = 0 to nn - 1 do
    let w = (Design.net t.Rpins.design n).Types.n_weight in
    acc := !acc +. (w *. hpwl_net t ~cx ~cy n)
  done;
  !acc

(* ------------------------------------------------------------------ *)
(* Per-net bounding boxes (the Netbox build/rescan reference)          *)
(* ------------------------------------------------------------------ *)

let net_box (t : Rpins.t) ~cx ~cy n =
  let k = Rpins.load_net t ~cx ~cy n in
  if k = 0 then 0.0, 0.0, 0.0, 0.0
  else begin
    let xmin = ref t.Rpins.scratch_x.(0) and xmax = ref t.Rpins.scratch_x.(0) in
    let ymin = ref t.Rpins.scratch_y.(0) and ymax = ref t.Rpins.scratch_y.(0) in
    for i = 1 to k - 1 do
      let x = t.Rpins.scratch_x.(i) and y = t.Rpins.scratch_y.(i) in
      if x < !xmin then xmin := x;
      if x > !xmax then xmax := x;
      if y < !ymin then ymin := y;
      if y > !ymax then ymax := y
    done;
    !xmin, !xmax, !ymin, !ymax
  end

(* ------------------------------------------------------------------ *)
(* LSE wirelength                                                      *)
(* ------------------------------------------------------------------ *)

let lse_axis (a : float array) k ~gamma ~(w : float array) ~want_grad =
  let amax = ref a.(0) and amin = ref a.(0) in
  for i = 1 to k - 1 do
    if a.(i) > !amax then amax := a.(i);
    if a.(i) < !amin then amin := a.(i)
  done;
  let splus = ref 0.0 and sminus = ref 0.0 in
  for i = 0 to k - 1 do
    splus := !splus +. exp ((a.(i) -. !amax) /. gamma);
    sminus := !sminus +. exp ((!amin -. a.(i)) /. gamma)
  done;
  if want_grad then
    for i = 0 to k - 1 do
      w.(i) <-
        (exp ((a.(i) -. !amax) /. gamma) /. !splus)
        -. (exp ((!amin -. a.(i)) /. gamma) /. !sminus)
    done;
  !amax -. !amin +. (gamma *. (log !splus +. log !sminus))

let lse_value_grad (t : Rpins.t) ~gamma ~cx ~cy ~gx ~gy =
  let acc = ref 0.0 in
  let d = t.Rpins.design in
  for n = 0 to Design.num_nets d - 1 do
    let pins = (Design.net d n).Types.n_pins in
    let k = Rpins.load_net t ~cx ~cy n in
    if k >= 2 then begin
      let wn = (Design.net d n).Types.n_weight in
      let vx = lse_axis t.Rpins.scratch_x k ~gamma ~w:t.Rpins.scratch_w ~want_grad:true in
      for i = 0 to k - 1 do
        let c = t.Rpins.pin_cell.(pins.(i)) in
        gx.(c) <- gx.(c) +. (wn *. t.Rpins.scratch_w.(i))
      done;
      let vy = lse_axis t.Rpins.scratch_y k ~gamma ~w:t.Rpins.scratch_w ~want_grad:true in
      for i = 0 to k - 1 do
        let c = t.Rpins.pin_cell.(pins.(i)) in
        gy.(c) <- gy.(c) +. (wn *. t.Rpins.scratch_w.(i))
      done;
      acc := !acc +. (wn *. (vx +. vy))
    end
  done;
  !acc

(* ------------------------------------------------------------------ *)
(* RUDY congestion (serial scatter)                                    *)
(* ------------------------------------------------------------------ *)

let rudy (t : Rpins.t) ~nx ~ny ~cx ~cy =
  let d = t.Rpins.design in
  let die = d.Design.die in
  let bin_w = Rect.width die /. float_of_int nx in
  let bin_h = Rect.height die /. float_of_int ny in
  let demand = Array.make (nx * ny) 0.0 in
  let clamp_ix v = max 0 (min (nx - 1) v) in
  let clamp_iy v = max 0 (min (ny - 1) v) in
  for n = 0 to Design.num_nets d - 1 do
    let k = Rpins.load_net t ~cx ~cy n in
    if k >= 2 then begin
      let xmin = ref t.Rpins.scratch_x.(0) and xmax = ref t.Rpins.scratch_x.(0) in
      let ymin = ref t.Rpins.scratch_y.(0) and ymax = ref t.Rpins.scratch_y.(0) in
      for i = 1 to k - 1 do
        let x = t.Rpins.scratch_x.(i) and y = t.Rpins.scratch_y.(i) in
        if x < !xmin then xmin := x;
        if x > !xmax then xmax := x;
        if y < !ymin then ymin := y;
        if y > !ymax then ymax := y
      done;
      let w = max 1.0 (!xmax -. !xmin) and h = max 1.0 (!ymax -. !ymin) in
      let weight = (Design.net d n).Types.n_weight in
      let density = weight *. (w +. h) /. (w *. h) in
      let box = Rect.make ~xl:!xmin ~yl:!ymin ~xh:(!xmin +. w) ~yh:(!ymin +. h) in
      let ix0 = clamp_ix (int_of_float (floor ((box.Rect.xl -. die.Rect.xl) /. bin_w))) in
      let ix1 = clamp_ix (int_of_float (ceil ((box.Rect.xh -. die.Rect.xl) /. bin_w)) - 1) in
      let iy0 = clamp_iy (int_of_float (floor ((box.Rect.yl -. die.Rect.yl) /. bin_h))) in
      let iy1 = clamp_iy (int_of_float (ceil ((box.Rect.yh -. die.Rect.yl) /. bin_h)) - 1) in
      for iy = iy0 to iy1 do
        for ix = ix0 to ix1 do
          let bin =
            Rect.make
              ~xl:(die.Rect.xl +. (float_of_int ix *. bin_w))
              ~yl:(die.Rect.yl +. (float_of_int iy *. bin_h))
              ~xh:(die.Rect.xl +. (float_of_int (ix + 1) *. bin_w))
              ~yh:(die.Rect.yl +. (float_of_int (iy + 1) *. bin_h))
          in
          let ov = Rect.overlap_area box bin in
          if ov > 0.0 then
            demand.((iy * nx) + ix) <- demand.((iy * nx) + ix) +. (density *. ov)
        done
      done
    end
  done;
  let bin_area = bin_w *. bin_h in
  Array.iteri (fun i v -> demand.(i) <- v /. bin_area) demand;
  demand

(* ------------------------------------------------------------------ *)
(* Bell-shaped density (serial)                                        *)
(* ------------------------------------------------------------------ *)

module Rbell = struct
  type t = {
    grid : Grid.t;
    movable : int array;
    cell_w : float array;
    cell_h : float array;
    radius_x : float array;
    radius_y : float array;
    normalizer : float array;
    target : float array;
    phi : float array;
  }

  let theta ~r d =
    let d = abs_float d in
    if d >= r then 0.0
    else if d <= r /. 2.0 then 1.0 -. (2.0 *. d *. d /. (r *. r))
    else begin
      let e = d -. r in
      2.0 *. e *. e /. (r *. r)
    end

  let theta_deriv ~r d =
    let s = if d < 0.0 then -1.0 else 1.0 in
    let d = abs_float d in
    if d >= r then 0.0
    else if d <= r /. 2.0 then s *. (-4.0 *. d /. (r *. r))
    else s *. (4.0 *. (d -. r) /. (r *. r))

  let lattice_sum ~r ~step =
    let k = int_of_float (ceil (r /. step)) + 1 in
    let acc = ref 0.0 in
    for i = -k to k do
      acc := !acc +. theta ~r (float_of_int i *. step)
    done;
    !acc

  let create ?(frozen = fun _ -> false) (d : Design.t) ~grid ~target_density =
    let nc = Design.num_cells d in
    let movable =
      Array.of_list
        (List.filter (fun i -> not (frozen i)) (Array.to_list (Design.movable_ids d)))
    in
    let cell_w = Array.make nc 0.0 and cell_h = Array.make nc 0.0 in
    let radius_x = Array.make nc 0.0 and radius_y = Array.make nc 0.0 in
    let normalizer = Array.make nc 0.0 in
    Array.iter
      (fun i ->
        let c = Design.cell d i in
        cell_w.(i) <- c.Types.c_width;
        cell_h.(i) <- c.Types.c_height;
        radius_x.(i) <- (c.Types.c_width /. 2.0) +. grid.Grid.bin_w;
        radius_y.(i) <- (c.Types.c_height /. 2.0) +. grid.Grid.bin_h;
        let sx = lattice_sum ~r:radius_x.(i) ~step:grid.Grid.bin_w in
        let sy = lattice_sum ~r:radius_y.(i) ~step:grid.Grid.bin_h in
        let s = sx *. sy in
        normalizer.(i) <-
          (if s > 0.0 then c.Types.c_width *. c.Types.c_height /. s else 0.0))
      movable;
    let target = Array.map (fun cap -> target_density *. cap) grid.Grid.capacity in
    {
      grid;
      movable;
      cell_w;
      cell_h;
      radius_x;
      radius_y;
      normalizer;
      target;
      phi = Array.make (Array.length grid.Grid.capacity) 0.0;
    }

  let iter_window t i x y f =
    let g = t.grid in
    let rx = t.radius_x.(i) and ry = t.radius_y.(i) in
    let ix0, ix1 =
      Grid.range_of_interval ~lo:(x -. rx) ~hi:(x +. rx) ~origin:g.Grid.die.Rect.xl
        ~step:g.Grid.bin_w ~n:g.Grid.nx
    in
    let iy0, iy1 =
      Grid.range_of_interval ~lo:(y -. ry) ~hi:(y +. ry) ~origin:g.Grid.die.Rect.yl
        ~step:g.Grid.bin_h ~n:g.Grid.ny
    in
    for iy = iy0 to iy1 do
      let ty = theta ~r:ry (y -. Grid.bin_center_y g iy) in
      if ty > 0.0 then
        for ix = ix0 to ix1 do
          let tx = theta ~r:rx (x -. Grid.bin_center_x g ix) in
          if tx > 0.0 then f ix iy tx ty
        done
    done

  let fill_phi t ~cx ~cy =
    Array.fill t.phi 0 (Array.length t.phi) 0.0;
    Array.iter
      (fun i ->
        let cv = t.normalizer.(i) in
        iter_window t i cx.(i) cy.(i) (fun ix iy tx ty ->
            let b = Grid.index t.grid ix iy in
            t.phi.(b) <- t.phi.(b) +. (cv *. tx *. ty)))
      t.movable

  let penalty t =
    let acc = ref 0.0 in
    for b = 0 to Array.length t.phi - 1 do
      let e = t.phi.(b) -. t.target.(b) in
      acc := !acc +. (e *. e)
    done;
    !acc

  let value_grad t ~cx ~cy ~gx ~gy =
    fill_phi t ~cx ~cy;
    let g = t.grid in
    Array.iter
      (fun i ->
        let cv = t.normalizer.(i) in
        let x = cx.(i) and y = cy.(i) in
        let rx = t.radius_x.(i) and ry = t.radius_y.(i) in
        iter_window t i x y (fun ix iy tx ty ->
            let b = Grid.index g ix iy in
            let e = 2.0 *. (t.phi.(b) -. t.target.(b)) in
            let dtx = theta_deriv ~r:rx (x -. Grid.bin_center_x g ix) in
            let dty = theta_deriv ~r:ry (y -. Grid.bin_center_y g iy) in
            gx.(i) <- gx.(i) +. (e *. cv *. dtx *. ty);
            gy.(i) <- gy.(i) +. (e *. cv *. tx *. dty)))
      t.movable;
    penalty t
end
