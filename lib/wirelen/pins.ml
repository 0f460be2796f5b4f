module Design = Dpp_netlist.Design
module Soa = Dpp_netlist.Soa
module Types = Dpp_netlist.Types
module I32 = Dpp_util.Compact.I32
module F64 = Dpp_util.Compact.F64

type t = {
  soa : Soa.t;
  pin_cell : I32.t;
  off_x : float array;
  off_y : float array;
  scratch_x : float array;
  scratch_y : float array;
  scratch_w : float array;
  scratch_u : float array;  (** per-pin exp cache for the LSE kernel *)
  scratch_v : float array;
}

let of_soa (s : Soa.t) =
  let np = Soa.num_pins s in
  let off_x = Array.make np 0.0 in
  let off_y = Array.make np 0.0 in
  for p = 0 to np - 1 do
    let ci = Int32.to_int (I32.uget s.Soa.pin_cell p) in
    (* offsets respect the cell's orientation at build time (orientation is
       constant during an optimization phase; the flip pass mirrors them
       in place) *)
    let dx, dy =
      Dpp_geom.Orient.apply_offset s.Soa.orient.(ci) ~w:s.Soa.width.(ci) ~h:s.Soa.height.(ci)
        (F64.uget s.Soa.pin_dx p, F64.uget s.Soa.pin_dy p)
    in
    let ow, oh = Dpp_geom.Orient.apply s.Soa.orient.(ci) ~w:s.Soa.width.(ci) ~h:s.Soa.height.(ci) in
    off_x.(p) <- dx -. (ow /. 2.0);
    off_y.(p) <- dy -. (oh /. 2.0)
  done;
  let max_deg = Soa.max_net_degree s in
  {
    soa = s;
    pin_cell = s.Soa.pin_cell;
    off_x;
    off_y;
    scratch_x = Array.make max_deg 0.0;
    scratch_y = Array.make max_deg 0.0;
    scratch_w = Array.make max_deg 0.0;
    scratch_u = Array.make max_deg 0.0;
    scratch_v = Array.make max_deg 0.0;
  }

let build (d : Design.t) = of_soa (Soa.of_design d)

let max_net_degree t = Array.length t.scratch_x

(* Scratch buffers are the only mutable per-evaluation state, so a view
   with fresh buffers is all another domain needs to evaluate nets
   concurrently against the shared geometry. *)
let clone_scratch t =
  let k = Array.length t.scratch_x in
  {
    t with
    scratch_x = Array.make k 0.0;
    scratch_y = Array.make k 0.0;
    scratch_w = Array.make k 0.0;
    scratch_u = Array.make k 0.0;
    scratch_v = Array.make k 0.0;
  }

let flip_cell_x t i =
  let s = t.soa in
  for
    k = Int32.to_int (I32.uget s.Soa.cell_pin_off i)
    to Int32.to_int (I32.uget s.Soa.cell_pin_off (i + 1)) - 1
  do
    let p = Int32.to_int (I32.uget s.Soa.cell_pin k) in
    t.off_x.(p) <- -.t.off_x.(p)
  done

let load_net t ~cx ~cy n =
  let s = t.soa in
  let lo = Int32.to_int (I32.uget s.Soa.net_pin_off n) in
  let k = Int32.to_int (I32.uget s.Soa.net_pin_off (n + 1)) - lo in
  for i = 0 to k - 1 do
    let p = Int32.to_int (I32.uget s.Soa.net_pin (lo + i)) in
    let c = Int32.to_int (I32.uget t.pin_cell p) in
    t.scratch_x.(i) <- cx.(c) +. t.off_x.(p);
    t.scratch_y.(i) <- cy.(c) +. t.off_y.(p)
  done;
  k

let centers_of_design (d : Design.t) =
  let n = Design.num_cells d in
  let cx = Array.init n (fun i -> Design.cell_center_x d i) in
  let cy = Array.init n (fun i -> Design.cell_center_y d i) in
  cx, cy

let apply_centers (d : Design.t) cx cy =
  for i = 0 to Design.num_cells d - 1 do
    if not (Types.is_fixed_kind (Design.cell d i).Types.c_kind) then
      Design.set_center d i cx.(i) cy.(i)
  done
