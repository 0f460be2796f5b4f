(* Tests for Dpp_congest.Rudy. *)

module Rect = Dpp_geom.Rect
module Types = Dpp_netlist.Types
module Builder = Dpp_netlist.Builder
module Rudy = Dpp_congest.Rudy
module Pins = Dpp_wirelen.Pins

let check_float = Alcotest.(check (float 1e-6))

(* one 2-pin net between known points on a known grid *)
let net_design x0 x1 =
  let die = Rect.make ~xl:0.0 ~yl:0.0 ~xh:100.0 ~yh:100.0 in
  let b = Builder.create ~die ~row_height:10.0 ~site_width:1.0 () in
  let mk name x =
    let id = Builder.add_cell b ~name ~master:"X" ~w:2.0 ~h:10.0 ~kind:Types.Movable in
    let p = Builder.add_pin b ~cell:id ~dir:Types.Input ~dx:1.0 ~dy:5.0 () in
    Builder.set_position b id ~x ~y:40.0;
    p
  in
  let p0 = mk "a" x0 and p1 = mk "b" x1 in
  ignore (Builder.add_net b [ p0; p1 ]);
  Builder.finish b

let test_rudy_mass () =
  (* total demand integrated over the die must equal the net's RUDY volume:
     density (w+h)/(w*h) times box area w*h = w + h (the half-perimeter) *)
  let d = net_design 10.0 60.0 in
  let cx, cy = Pins.centers_of_design d in
  let r = Rudy.compute ~pins:(Pins.build d) ~nx:10 ~ny:10 d ~cx ~cy in
  let total =
    Array.fold_left ( +. ) 0.0 r.Rudy.demand *. r.Rudy.bin_w *. r.Rudy.bin_h
  in
  (* pins at x 11 and 61, same y: w = 50, h = max 1 -> volume 51 *)
  check_float "demand volume = half-perimeter" 51.0 total

let test_rudy_localized () =
  let d = net_design 10.0 20.0 in
  let cx, cy = Pins.centers_of_design d in
  let r = Rudy.compute ~pins:(Pins.build d) ~nx:10 ~ny:10 d ~cx ~cy in
  (* all demand inside the net's bbox rows: y in [44,46] -> bin row 4 *)
  for iy = 0 to 9 do
    for ix = 0 to 9 do
      let v = r.Rudy.demand.((iy * 10) + ix) in
      if iy <> 4 && v > 1e-9 then Alcotest.failf "demand leaked to bin (%d,%d)" ix iy
    done
  done

let test_rudy_stats () =
  let d = net_design 10.0 60.0 in
  let cx, cy = Pins.centers_of_design d in
  let r = Rudy.compute ~pins:(Pins.build d) ~nx:10 ~ny:10 d ~cx ~cy in
  let s = Rudy.stats r in
  Alcotest.(check bool) "max >= p95 >= avg" true
    (s.Rudy.max_ratio >= s.Rudy.p95_ratio && s.Rudy.p95_ratio >= s.Rudy.avg_ratio);
  Alcotest.(check bool) "fractions sane" true
    (s.Rudy.overflowed_bins >= 0.0 && s.Rudy.overflowed_bins <= 1.0)

let test_rudy_hotspots () =
  let d = net_design 10.0 15.0 in
  let cx, cy = Pins.centers_of_design d in
  let r = Rudy.compute ~pins:(Pins.build d) ~nx:10 ~ny:10 d ~cx ~cy in
  match Rudy.hotspots r ~count:3 with
  | (ix, iy, ratio) :: _ ->
    Alcotest.(check bool) "hottest is where the net is" true (iy = 4 && ix <= 2);
    Alcotest.(check bool) "ratio positive" true (ratio > 0.0);
    check_float "accessor agrees" ratio (Rudy.ratio_at r ~ix ~iy)
  | [] -> Alcotest.fail "no hotspots"

let test_rudy_placement_sensitivity () =
  (* total RUDY demand volume equals the sum of net half-perimeters, so a
     shorter-wirelength placement must have lower average demand *)
  let d = Dpp_gen.Compose.build (List.nth Dpp_gen.Presets.suite 4) in
  let qp = Dpp_place.Qp.run ~seed:1 d in
  let pins = Pins.build d in
  let gp =
    Dpp_place.Gp.run ~pins d Dpp_place.Gp.default_config ~cx:qp.Dpp_place.Qp.cx
      ~cy:qp.Dpp_place.Qp.cy
  in
  let hp_qp = Dpp_wirelen.Hpwl.total pins ~cx:qp.Dpp_place.Qp.cx ~cy:qp.Dpp_place.Qp.cy in
  let hp_gp = Dpp_wirelen.Hpwl.total pins ~cx:gp.Dpp_place.Gp.cx ~cy:gp.Dpp_place.Gp.cy in
  let s_qp = Rudy.stats (Rudy.compute ~pins ~nx:16 ~ny:16 d ~cx:qp.Dpp_place.Qp.cx ~cy:qp.Dpp_place.Qp.cy) in
  let s_gp = Rudy.stats (Rudy.compute ~pins ~nx:16 ~ny:16 d ~cx:gp.Dpp_place.Gp.cx ~cy:gp.Dpp_place.Gp.cy) in
  let ordered = (hp_qp <= hp_gp) = (s_qp.Rudy.avg_ratio <= s_gp.Rudy.avg_ratio +. 1e-6) in
  Alcotest.(check bool) "average demand tracks wirelength" true ordered

let test_rudy_mass_grid_invariant () =
  (* the integrated demand volume is a property of the nets, not of the
     grid: every resolution must integrate to the same half-perimeter *)
  let d = net_design 10.0 60.0 in
  let cx, cy = Pins.centers_of_design d in
  List.iter
    (fun (nx, ny) ->
      let r = Rudy.compute ~pins:(Pins.build d) ~nx ~ny d ~cx ~cy in
      let total =
        Array.fold_left ( +. ) 0.0 r.Rudy.demand *. r.Rudy.bin_w *. r.Rudy.bin_h
      in
      check_float (Printf.sprintf "volume at %dx%d" nx ny) 51.0 total)
    [ 1, 1; 5, 5; 10, 10; 16, 16; 64, 64; 10, 64 ]

let test_rudy_translation_invariance () =
  (* shifting the whole placement by an exact bin multiple shifts the
     demand map by the same bin offset, bit for bit *)
  let d = net_design 10.0 30.0 in
  let cx, cy = Pins.centers_of_design d in
  let nx = 10 and ny = 10 in
  let pins = Pins.build d in
  let r1 = Rudy.compute ~pins ~nx ~ny d ~cx ~cy in
  let sx = 2.0 *. r1.Rudy.bin_w and sy = 3.0 *. r1.Rudy.bin_h in
  let r2 =
    Rudy.compute ~pins ~nx ~ny d
      ~cx:(Array.map (fun x -> x +. sx) cx)
      ~cy:(Array.map (fun y -> y +. sy) cy)
  in
  for iy = 0 to ny - 4 do
    for ix = 0 to nx - 3 do
      let a = r1.Rudy.demand.((iy * nx) + ix)
      and b = r2.Rudy.demand.(((iy + 3) * nx) + ix + 2) in
      if not (Float.equal a b) then
        Alcotest.failf "bin (%d,%d): %.17g vs shifted %.17g" ix iy a b
    done
  done

let test_rudy_pooled_equivalence () =
  (* the chunk-merged pooled scatter is bit-stable across worker counts,
     and agrees with the serial scatter to rounding *)
  let d = Dpp_gen.Channel.build ~pairs:40 () in
  let cx, cy = Pins.centers_of_design d in
  let pins = Pins.build d in
  let serial = Rudy.compute ~pins ~nx:16 ~ny:16 d ~cx ~cy in
  let pooled =
    List.map
      (fun w ->
        Dpp_par.Pool.with_pool ~nworkers:w @@ fun pool ->
        (Rudy.compute ~pool ~pins ~nx:16 ~ny:16 d ~cx ~cy).Rudy.demand)
      [ 1; 2; 4; 8 ]
  in
  let base = List.hd pooled in
  List.iteri
    (fun k dem ->
      Array.iteri
        (fun b v ->
          if not (Float.equal base.(b) v) then
            Alcotest.failf "bin %d differs between 1 and %d workers" b
              (List.nth [ 1; 2; 4; 8 ] k))
        dem)
    pooled;
  Array.iteri
    (fun b v ->
      let s = serial.Rudy.demand.(b) in
      if abs_float (s -. v) > 1e-9 *. (1.0 +. abs_float s) then
        Alcotest.failf "bin %d: serial %.17g vs pooled %.17g" b s v)
    base

let test_rudy_two_net_fixture () =
  (* two nets with hand-computed per-bin values on a 10x10 grid over a
     100x100 die (bin area 100).  Net A: pins (11,45)-(61,45), weight 1:
     box [11,61]x[45,46], density 51/50.  Net B: pins (11,45)-(11,75),
     weight 2: degenerate width clamps to 1, box [11,12]x[45,75],
     density 2*31/30. *)
  let die = Rect.make ~xl:0.0 ~yl:0.0 ~xh:100.0 ~yh:100.0 in
  let b = Builder.create ~die ~row_height:10.0 ~site_width:1.0 () in
  let mk name x y =
    let id = Builder.add_cell b ~name ~master:"X" ~w:2.0 ~h:10.0 ~kind:Types.Movable in
    let p = Builder.add_pin b ~cell:id ~dir:Types.Input ~dx:1.0 ~dy:5.0 () in
    Builder.set_position b id ~x ~y;
    p
  in
  let p0 = mk "a" 10.0 40.0 and p1 = mk "b" 60.0 40.0 and p2 = mk "c" 10.0 70.0 in
  (* a second pin at the same offset on cell "a": one pin per net *)
  let p0' = Builder.add_pin b ~cell:0 ~dir:Types.Output ~dx:1.0 ~dy:5.0 () in
  ignore (Builder.add_net b ~weight:1.0 [ p0; p1 ]);
  ignore (Builder.add_net b ~weight:2.0 [ p0'; p2 ]);
  let d = Builder.finish b in
  let cx, cy = Pins.centers_of_design d in
  let r = Rudy.compute ~pins:(Pins.build d) ~nx:10 ~ny:10 d ~cx ~cy in
  let da = 1.0 *. (50.0 +. 1.0) /. (50.0 *. 1.0) in
  let db = 2.0 *. (1.0 +. 30.0) /. (1.0 *. 30.0) in
  let at ix iy = r.Rudy.demand.((iy * 10) + ix) in
  (* bin (1,4): 9x1 of net A and 1x5 of net B *)
  check_float "bin (1,4)" (((9.0 *. da) +. (5.0 *. db)) /. 100.0) (at 1 4);
  (* bin (3,4): net A only, full 10x1 *)
  check_float "bin (3,4)" (10.0 *. da /. 100.0) (at 3 4);
  (* bin (6,4): net A's last sliver, 1x1 *)
  check_float "bin (6,4)" (1.0 *. da /. 100.0) (at 6 4);
  (* bin (1,6): net B only, 1x10 *)
  check_float "bin (1,6)" (10.0 *. db /. 100.0) (at 1 6);
  (* bin (1,7): net B's top, 1x5 *)
  check_float "bin (1,7)" (5.0 *. db /. 100.0) (at 1 7);
  (* far corner: empty *)
  check_float "bin (9,9)" 0.0 (at 9 9)

let test_rudy_degenerate_grids () =
  (* non-positive grid requests collapse to the single-bin grid, and a
     zero-extent die falls back to unit bins — both stay finite *)
  let d = net_design 10.0 60.0 in
  let cx, cy = Pins.centers_of_design d in
  let r = Rudy.compute ~pins:(Pins.build d) ~nx:0 ~ny:(-3) d ~cx ~cy in
  Alcotest.(check int) "collapsed nx" 1 r.Rudy.nx;
  Alcotest.(check int) "collapsed ny" 1 r.Rudy.ny;
  check_float "single-bin volume" 51.0 (r.Rudy.demand.(0) *. r.Rudy.bin_w *. r.Rudy.bin_h);
  let flat =
    { d with Dpp_netlist.Design.die = Rect.make ~xl:0.0 ~yl:40.0 ~xh:100.0 ~yh:40.0 }
  in
  let r = Rudy.compute ~pins:(Pins.build flat) ~nx:10 ~ny:10 flat ~cx ~cy in
  check_float "zero-height die: unit bin" 1.0 r.Rudy.bin_h;
  Array.iter
    (fun v ->
      if not (Float.is_finite v) || v < 0.0 then
        Alcotest.failf "non-finite or negative demand %.17g" v)
    r.Rudy.demand;
  let s = Rudy.stats r in
  Alcotest.(check bool) "stats finite" true
    (Float.is_finite s.Rudy.max_ratio && Float.is_finite s.Rudy.ace_ratio)

let test_rudy_weight_scales () =
  let d1 = net_design 10.0 60.0 in
  let cx, cy = Pins.centers_of_design d1 in
  let r1 = Rudy.compute ~pins:(Pins.build d1) ~nx:10 ~ny:10 d1 ~cx ~cy in
  (* double the net weight: total demand doubles *)
  let nets =
    Array.map (fun (n : Types.net) -> { n with Types.n_weight = 2.0 }) d1.Dpp_netlist.Design.nets
  in
  let d2 = { d1 with Dpp_netlist.Design.nets } in
  let r2 = Rudy.compute ~pins:(Pins.build d2) ~nx:10 ~ny:10 d2 ~cx ~cy in
  let tot r = Array.fold_left ( +. ) 0.0 r.Rudy.demand in
  check_float "weight scales demand" (2.0 *. tot r1) (tot r2)

let suite =
  [
    Alcotest.test_case "rudy mass conservation" `Quick test_rudy_mass;
    Alcotest.test_case "rudy localized" `Quick test_rudy_localized;
    Alcotest.test_case "rudy stats" `Quick test_rudy_stats;
    Alcotest.test_case "rudy hotspots" `Quick test_rudy_hotspots;
    Alcotest.test_case "rudy placement sensitivity" `Slow test_rudy_placement_sensitivity;
    Alcotest.test_case "rudy weight scaling" `Quick test_rudy_weight_scales;
    Alcotest.test_case "rudy mass grid invariance" `Quick test_rudy_mass_grid_invariant;
    Alcotest.test_case "rudy translation invariance" `Quick test_rudy_translation_invariance;
    Alcotest.test_case "rudy pooled equivalence" `Quick test_rudy_pooled_equivalence;
    Alcotest.test_case "rudy two-net fixture" `Quick test_rudy_two_net_fixture;
    Alcotest.test_case "rudy degenerate grids" `Quick test_rudy_degenerate_grids;
  ]
