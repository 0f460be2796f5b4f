module Rect = Dpp_geom.Rect
module Design = Dpp_netlist.Design
module Types = Dpp_netlist.Types

type t = {
  die : Rect.t;
  nx : int;
  ny : int;
  bin_w : float;
  bin_h : float;
  capacity : float array;
}

let index t ix iy = (iy * t.nx) + ix

let clamp_ix t ix = max 0 (min (t.nx - 1) ix)
let clamp_iy t iy = max 0 (min (t.ny - 1) iy)

let bin_center_x t ix = t.die.Rect.xl +. ((float_of_int ix +. 0.5) *. t.bin_w)
let bin_center_y t iy = t.die.Rect.yl +. ((float_of_int iy +. 0.5) *. t.bin_h)

let bin_rect t ~ix ~iy =
  let xl = t.die.Rect.xl +. (float_of_int ix *. t.bin_w) in
  let yl = t.die.Rect.yl +. (float_of_int iy *. t.bin_h) in
  Rect.make ~xl ~yl ~xh:(xl +. t.bin_w) ~yh:(yl +. t.bin_h)

let ix_of_x t x = clamp_ix t (int_of_float (floor ((x -. t.die.Rect.xl) /. t.bin_w)))

let range_of_interval ~lo ~hi ~origin ~step ~n =
  let a = int_of_float (floor ((lo -. origin) /. step)) in
  let b = int_of_float (ceil ((hi -. origin) /. step)) - 1 in
  max 0 (min (n - 1) a), max 0 (min (n - 1) b)

let build ?(extra_obstacles = []) (d : Design.t) ~nx ~ny =
  if nx <= 0 || ny <= 0 then invalid_arg "Grid.build: non-positive dimensions";
  let die = d.Design.die in
  let bin_w = Rect.width die /. float_of_int nx in
  let bin_h = Rect.height die /. float_of_int ny in
  let capacity = Array.make (nx * ny) (bin_w *. bin_h) in
  let t = { die; nx; ny; bin_w; bin_h; capacity } in
  let subtract_rect r =
    match Rect.intersection r die with
    | None -> ()
    | Some r ->
      let ix0, ix1 =
        range_of_interval ~lo:r.Rect.xl ~hi:r.Rect.xh ~origin:die.Rect.xl ~step:bin_w ~n:nx
      in
      let iy0, iy1 =
        range_of_interval ~lo:r.Rect.yl ~hi:r.Rect.yh ~origin:die.Rect.yl ~step:bin_h ~n:ny
      in
      for iy = iy0 to iy1 do
        for ix = ix0 to ix1 do
          let b = bin_rect t ~ix ~iy in
          let ov = Rect.overlap_area r b in
          let idx = index t ix iy in
          capacity.(idx) <- max 0.0 (capacity.(idx) -. ov)
        done
      done
  in
  List.iter subtract_rect extra_obstacles;
  Array.iter
    (fun (c : Types.cell) ->
      match c.c_kind with
      | Types.Fixed -> subtract_rect (Design.cell_rect d c.c_id)
      | Types.Movable | Types.Pad -> ())
    d.Design.cells;
  t

let default_dims (d : Design.t) =
  let movable = Array.length (Design.movable_ids d) in
  (* ~4 movable cells per bin: fine enough that bin-local pile-ups cannot
     hide much displacement from the legalizer *)
  let side = int_of_float (Float.round (sqrt (float_of_int movable /. 4.0))) in
  let side = max 8 (min 512 side) in
  side, side

let total_capacity t = Array.fold_left ( +. ) 0.0 t.capacity
