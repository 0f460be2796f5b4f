module Design = Dpp_netlist.Design
module Types = Dpp_netlist.Types
module Soa = Dpp_netlist.Soa
module I32 = Dpp_util.Compact.I32
module Rect = Dpp_geom.Rect
module Csr = Dpp_numeric.Csr
module Pcg = Dpp_numeric.Pcg
module Rng = Dpp_util.Rng

type result = { cx : float array; cy : float array; iterations_x : int; iterations_y : int }

let run_with ~seed ~(soa : Soa.t) (d : Design.t) =
  let nc = Design.num_cells d in
  let movable = Design.movable_ids d in
  let m = Array.length movable in
  let var_of = Array.make nc (-1) in
  Array.iteri (fun v i -> var_of.(i) <- v) movable;
  let cx = Array.init nc (fun i -> Design.cell_center_x d i) in
  let cy = Array.init nc (fun i -> Design.cell_center_y d i) in
  if m > 0 then begin
    let trip = Csr.Triplets.create ~rows:m ~cols:m in
    let bx = Array.make m 0.0 and by = Array.make m 0.0 in
    let add_edge u v w =
      let vu = var_of.(u) and vv = var_of.(v) in
      match vu >= 0, vv >= 0 with
      | true, true ->
        Csr.Triplets.add trip vu vu w;
        Csr.Triplets.add trip vv vv w;
        Csr.Triplets.add trip vu vv (-.w);
        Csr.Triplets.add trip vv vu (-.w)
      | true, false ->
        Csr.Triplets.add trip vu vu w;
        bx.(vu) <- bx.(vu) +. (w *. cx.(v));
        by.(vu) <- by.(vu) +. (w *. cy.(v))
      | false, true ->
        Csr.Triplets.add trip vv vv w;
        bx.(vv) <- bx.(vv) +. (w *. cx.(u));
        by.(vv) <- by.(vv) +. (w *. cy.(u))
      | false, false -> ()
    in
    for n = 0 to Soa.num_nets soa - 1 do
      let base = Int32.to_int (I32.uget soa.Soa.net_cell_off n) in
      let cell a = Int32.to_int (I32.uget soa.Soa.net_cell (base + a)) in
      let k = Soa.net_cell_count soa n in
      if k >= 2 then begin
        let weight = soa.Soa.net_weight.(n) in
        if k <= 4 then begin
          let w = weight /. float_of_int (k - 1) in
          for a = 0 to k - 1 do
            for b = a + 1 to k - 1 do
              add_edge (cell a) (cell b) w
            done
          done
        end
        else begin
          let w = 2.0 *. weight /. float_of_int k in
          for a = 0 to k - 1 do
            add_edge (cell a) (cell ((a + 1) mod k)) w
          done
        end
      end
    done;
    (* weak center anchor for positive definiteness *)
    let anchor = 1e-4 in
    let ctr_x = Rect.center_x d.Design.die and ctr_y = Rect.center_y d.Design.die in
    for v = 0 to m - 1 do
      Csr.Triplets.add trip v v anchor;
      bx.(v) <- bx.(v) +. (anchor *. ctr_x);
      by.(v) <- by.(v) +. (anchor *. ctr_y)
    done;
    let a = Csr.Triplets.to_csr trip in
    let sol_x, st_x = Pcg.solve ~max_iter:600 ~tol:1e-7 a bx in
    let sol_y, st_y = Pcg.solve ~max_iter:600 ~tol:1e-7 a by in
    (* scatter, with deterministic one-site jitter to break ties *)
    let rng = Rng.create seed in
    let die = d.Design.die in
    Array.iteri
      (fun v i ->
        let jx = Rng.float_in rng (-.d.Design.site_width) d.Design.site_width in
        let jy = Rng.float_in rng (-.d.Design.site_width) d.Design.site_width in
        let c = Design.cell d i in
        let hw = c.Types.c_width /. 2.0 and hh = c.Types.c_height /. 2.0 in
        cx.(i) <- max (die.Rect.xl +. hw) (min (die.Rect.xh -. hw) (sol_x.(v) +. jx));
        cy.(i) <- max (die.Rect.yl +. hh) (min (die.Rect.yh -. hh) (sol_y.(v) +. jy)))
      movable;
    { cx; cy; iterations_x = st_x.Pcg.iterations; iterations_y = st_y.Pcg.iterations }
  end
  else { cx; cy; iterations_x = 0; iterations_y = 0 }

let run ?(seed = 1) d = run_with ~seed ~soa:(Soa.of_design d) d
