(* Tests for Dpp_wirelen: HPWL and LSE — exact values, model bounds, and
   finite-difference gradient verification. *)

module Rect = Dpp_geom.Rect
module Types = Dpp_netlist.Types
module Builder = Dpp_netlist.Builder
module Design = Dpp_netlist.Design
module Pins = Dpp_wirelen.Pins
module Hpwl = Dpp_wirelen.Hpwl
module Lse = Dpp_wirelen.Lse

let check_float = Alcotest.(check (float 1e-9))

(* Two cells with one pin each at known spots, one net. *)
let two_point_design () =
  let die = Rect.make ~xl:0.0 ~yl:0.0 ~xh:100.0 ~yh:50.0 in
  let b = Builder.create ~die ~row_height:10.0 ~site_width:1.0 () in
  let mk name x y =
    let id = Builder.add_cell b ~name ~master:"X" ~w:2.0 ~h:10.0 ~kind:Types.Movable in
    let p = Builder.add_pin b ~cell:id ~dir:Types.Input ~dx:1.0 ~dy:5.0 () in
    Builder.set_position b id ~x ~y;
    p
  in
  let p0 = mk "a" 0.0 0.0 in
  let p1 = mk "b" 30.0 20.0 in
  ignore (Builder.add_net b [ p0; p1 ]);
  Builder.finish b

let test_hpwl_two_points () =
  let d = two_point_design () in
  (* pin positions (1,5) and (31,25): HPWL = 30 + 20 *)
  check_float "hpwl" 50.0 (Hpwl.total_of_design d)

let test_hpwl_weighted () =
  let die = Rect.make ~xl:0.0 ~yl:0.0 ~xh:100.0 ~yh:50.0 in
  let b = Builder.create ~die ~row_height:10.0 ~site_width:1.0 () in
  let mk name x =
    let id = Builder.add_cell b ~name ~master:"X" ~w:2.0 ~h:10.0 ~kind:Types.Movable in
    let p = Builder.add_pin b ~cell:id ~dir:Types.Input ~dx:0.0 ~dy:0.0 () in
    Builder.set_position b id ~x ~y:0.0;
    p
  in
  let p0 = mk "a" 0.0 and p1 = mk "b" 10.0 in
  ignore (Builder.add_net b ~weight:3.0 [ p0; p1 ]);
  let d = Builder.finish b in
  check_float "weighted hpwl" 30.0 (Hpwl.total_of_design d)

let test_hpwl_degenerate () =
  let die = Rect.make ~xl:0.0 ~yl:0.0 ~xh:100.0 ~yh:50.0 in
  let b = Builder.create ~die ~row_height:10.0 ~site_width:1.0 () in
  let id = Builder.add_cell b ~name:"a" ~master:"X" ~w:2.0 ~h:10.0 ~kind:Types.Movable in
  let p = Builder.add_pin b ~cell:id ~dir:Types.Output () in
  ignore (Builder.add_net b [ p ]);
  let d = Builder.finish b in
  check_float "single-pin net is 0" 0.0 (Hpwl.total_of_design d)

(* ---------------- model bounds ---------------- *)

let bounds_design seed = Tutil.random_design ~cells:10 ~nets:8 seed

let test_lse_upper_bound () =
  List.iter
    (fun seed ->
      let d = bounds_design seed in
      let pins = Pins.build d in
      let cx, cy = Pins.centers_of_design d in
      List.iter
        (fun gamma ->
          let lse = Lse.value pins ~gamma ~cx ~cy in
          let hp = Hpwl.total pins ~cx ~cy in
          if lse < hp -. 1e-6 then Alcotest.failf "LSE %.4f < HPWL %.4f" lse hp;
          (* per net per axis the gap is at most 2 gamma log(max degree) *)
          let max_deg = Pins.max_net_degree pins in
          let nn = float_of_int (Design.num_nets d) in
          let bound = hp +. (2.0 *. nn *. Lse.upper_bound_gap ~gamma ~degree:max_deg *. 2.0) in
          if lse > bound then Alcotest.failf "LSE %.4f above bound %.4f" lse bound)
        [ 10.0; 1.0; 0.1 ])
    [ 1; 2; 3 ]

let test_lse_converges_to_hpwl () =
  let d = bounds_design 4 in
  let pins = Pins.build d in
  let cx, cy = Pins.centers_of_design d in
  let hp = Hpwl.total pins ~cx ~cy in
  let err gamma = abs_float (Lse.value pins ~gamma ~cx ~cy -. hp) in
  Alcotest.(check bool) "monotone in gamma" true (err 0.01 < err 1.0 && err 1.0 < err 100.0)

(* ---------------- gradients ---------------- *)

let test_lse_gradient () =
  List.iter
    (fun seed ->
      let d = bounds_design seed in
      let pins = Pins.build d in
      let err =
        Tutil.gradient_error d ~value_grad:(fun ~cx ~cy ~gx ~gy ->
            Lse.value_grad pins ~gamma:3.0 ~cx ~cy ~gx ~gy)
      in
      if err > 1e-4 then Alcotest.failf "LSE gradient error %.2e" err)
    [ 21; 22; 23 ]

let test_gradient_translation_invariance () =
  (* moving everything by a constant leaves the model unchanged *)
  let d = bounds_design 31 in
  let pins = Pins.build d in
  let cx, cy = Pins.centers_of_design d in
  let v1 = Lse.value pins ~gamma:2.0 ~cx ~cy in
  let cx' = Array.map (fun x -> x +. 13.0) cx in
  let cy' = Array.map (fun y -> y -. 7.0) cy in
  let v2 = Lse.value pins ~gamma:2.0 ~cx:cx' ~cy:cy' in
  Alcotest.(check (float 1e-6)) "translation invariant" v1 v2

let test_numerical_stability_large_coords () =
  (* the max-shift normalisation must survive coordinates ~1e6 *)
  let d = two_point_design () in
  let pins = Pins.build d in
  let cx, cy = Pins.centers_of_design d in
  let cx = Array.map (fun x -> x +. 1e6) cx in
  let lse = Lse.value pins ~gamma:0.5 ~cx ~cy in
  Alcotest.(check bool) "lse finite" true (Float.is_finite lse)

let suite =
  [
    Alcotest.test_case "hpwl two points" `Quick test_hpwl_two_points;
    Alcotest.test_case "hpwl weighted" `Quick test_hpwl_weighted;
    Alcotest.test_case "hpwl degenerate" `Quick test_hpwl_degenerate;
    Alcotest.test_case "lse upper bound" `Quick test_lse_upper_bound;
    Alcotest.test_case "lse gamma convergence" `Quick test_lse_converges_to_hpwl;
    Alcotest.test_case "lse gradient fd" `Quick test_lse_gradient;
    Alcotest.test_case "translation invariance" `Quick test_gradient_translation_invariance;
    Alcotest.test_case "stability at large coords" `Quick test_numerical_stability_large_coords;
  ]
