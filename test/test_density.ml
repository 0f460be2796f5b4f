(* Tests for Dpp_density: Grid, Bell potential, Overflow. *)

module Rect = Dpp_geom.Rect
module Types = Dpp_netlist.Types
module Builder = Dpp_netlist.Builder
module Design = Dpp_netlist.Design
module Grid = Dpp_density.Grid
module Bell = Dpp_density.Bell
module Overflow = Dpp_density.Overflow
module Pins = Dpp_wirelen.Pins

let check_float = Alcotest.(check (float 1e-9))

(* ---------------- theta ---------------- *)

let test_theta_shape () =
  let r = 4.0 in
  check_float "peak" 1.0 (Bell.theta ~r 0.0);
  check_float "zero outside" 0.0 (Bell.theta ~r 5.0);
  check_float "half at r/2" 0.5 (Bell.theta ~r 2.0);
  Alcotest.(check bool) "symmetric" true (Bell.theta ~r 1.3 = Bell.theta ~r (-1.3));
  Alcotest.(check bool) "monotone" true
    (Bell.theta ~r 0.5 > Bell.theta ~r 1.5 && Bell.theta ~r 1.5 > Bell.theta ~r 3.0)

let test_theta_c1 () =
  (* continuity of value and derivative at the piece boundary r/2 *)
  let r = 4.0 in
  let eps = 1e-7 in
  Alcotest.(check (float 1e-5)) "value continuous"
    (Bell.theta ~r (2.0 -. eps))
    (Bell.theta ~r (2.0 +. eps));
  Alcotest.(check (float 1e-5)) "derivative continuous"
    (Bell.theta_deriv ~r (2.0 -. eps))
    (Bell.theta_deriv ~r (2.0 +. eps))

let test_theta_deriv_fd () =
  let r = 3.0 in
  List.iter
    (fun x ->
      let eps = 1e-6 in
      let fd = (Bell.theta ~r (x +. eps) -. Bell.theta ~r (x -. eps)) /. (2.0 *. eps) in
      Alcotest.(check (float 1e-4)) "deriv matches fd" fd (Bell.theta_deriv ~r x))
    [ -2.4; -1.0; 0.3; 1.1; 2.7 ]

(* ---------------- Grid ---------------- *)

let test_grid_capacity () =
  let d = Tutil.random_design ~cells:6 ~nets:4 3 in
  let g = Grid.build d ~nx:4 ~ny:3 in
  check_float "full capacity without fixed" (Rect.area d.Design.die) (Grid.total_capacity g)

let test_grid_fixed_subtraction () =
  let die = Rect.make ~xl:0.0 ~yl:0.0 ~xh:40.0 ~yh:20.0 in
  let b = Builder.create ~die ~row_height:10.0 ~site_width:1.0 () in
  let f = Builder.add_cell b ~name:"blk" ~master:"M" ~w:10.0 ~h:10.0 ~kind:Types.Fixed in
  Builder.set_position b f ~x:0.0 ~y:0.0;
  let d = Builder.finish b in
  let g = Grid.build d ~nx:4 ~ny:2 in
  check_float "blocked bin" 0.0 g.Grid.capacity.(0);
  check_float "free bin untouched" 100.0 g.Grid.capacity.(1);
  check_float "total reduced" 700.0 (Grid.total_capacity g)

let test_grid_extra_obstacles () =
  let d = Tutil.random_design ~cells:4 ~nets:2 4 in
  let full = Grid.total_capacity (Grid.build d ~nx:4 ~ny:4) in
  let ob = Rect.make ~xl:0.0 ~yl:0.0 ~xh:10.0 ~yh:10.0 in
  let g = Grid.build ~extra_obstacles:[ ob ] d ~nx:4 ~ny:4 in
  check_float "obstacle subtracted" (full -. 100.0) (Grid.total_capacity g)

let test_grid_indexing () =
  let d = Tutil.random_design 5 in
  let g = Grid.build d ~nx:6 ~ny:6 in
  Alcotest.(check int) "ix clamps" 5 (Grid.ix_of_x g 1e9);
  Alcotest.(check int) "ix clamps low" 0 (Grid.ix_of_x g (-1e9));
  let r = Grid.bin_rect g ~ix:2 ~iy:3 in
  Alcotest.(check bool) "center in rect" true
    (Rect.contains_point r (Dpp_geom.Point.make (Grid.bin_center_x g 2) (Grid.bin_center_y g 3)))

(* ---------------- Bell ---------------- *)

let test_bell_mass_conservation () =
  (* the smoothed field should carry roughly the movable area *)
  let d = Tutil.random_design ~cells:15 ~nets:8 ~die_w:80.0 ~die_rows:8 7 in
  let g = Grid.build d ~nx:10 ~ny:10 in
  let bell = Bell.create d ~grid:g ~target_density:1.0 in
  let cx, cy = Pins.centers_of_design d in
  let phi = Bell.bin_potential bell ~cx ~cy in
  let total = Array.fold_left ( +. ) 0.0 phi in
  let area = Design.movable_area d in
  Alcotest.(check bool) "mass within 15%" true (abs_float (total -. area) < 0.15 *. area)

let test_bell_gradient_fd () =
  List.iter
    (fun seed ->
      let d = Tutil.random_design ~cells:8 ~nets:5 seed in
      let g = Grid.build d ~nx:6 ~ny:6 in
      let bell = Bell.create d ~grid:g ~target_density:0.9 in
      let err =
        Tutil.gradient_error d ~value_grad:(fun ~cx ~cy ~gx ~gy ->
            Bell.value_grad bell ~cx ~cy ~gx ~gy)
      in
      if err > 1e-3 then Alcotest.failf "bell gradient error %.2e (seed %d)" err seed)
    [ 51; 52; 53 ]

let test_bell_value_positive () =
  let d = Tutil.random_design 9 in
  let g = Grid.build d ~nx:8 ~ny:8 in
  let bell = Bell.create d ~grid:g ~target_density:0.9 in
  let cx, cy = Pins.centers_of_design d in
  Alcotest.(check bool) "nonnegative" true (Bell.value bell ~cx ~cy >= 0.0)

let test_bell_spreading_reduces_penalty () =
  (* piling every cell on one spot must cost more than scattering them *)
  let d = Tutil.random_design ~cells:12 ~nets:6 ~die_w:80.0 ~die_rows:8 11 in
  let g = Grid.build d ~nx:8 ~ny:8 in
  let bell = Bell.create d ~grid:g ~target_density:0.9 in
  let cx, cy = Pins.centers_of_design d in
  let spread = Bell.value bell ~cx ~cy in
  let piled_x = Array.map (fun _ -> 40.0) cx in
  let piled_y = Array.map (fun _ -> 40.0) cy in
  let piled = Bell.value bell ~cx:piled_x ~cy:piled_y in
  Alcotest.(check bool) "pile costs more" true (piled > spread)

(* ---------------- Overflow ---------------- *)

let test_overflow_exact () =
  let die = Rect.make ~xl:0.0 ~yl:0.0 ~xh:20.0 ~yh:20.0 in
  let b = Builder.create ~die ~row_height:10.0 ~site_width:1.0 () in
  let c0 = Builder.add_cell b ~name:"a" ~master:"X" ~w:10.0 ~h:10.0 ~kind:Types.Movable in
  let c1 = Builder.add_cell b ~name:"b" ~master:"X" ~w:10.0 ~h:10.0 ~kind:Types.Movable in
  Builder.set_position b c0 ~x:0.0 ~y:0.0;
  Builder.set_position b c1 ~x:0.0 ~y:0.0;
  (* both cells on bin (0,0) of a 2x2 grid *)
  let d = Builder.finish b in
  let g = Grid.build d ~nx:2 ~ny:2 in
  let cx, cy = Pins.centers_of_design d in
  let usage = Overflow.bin_usage d g ~cx ~cy in
  check_float "bin usage" 200.0 usage.(0);
  check_float "other bins empty" 0.0 usage.(1);
  (* capacity 100/bin at target 1.0: overflow = 100 over area 200 *)
  check_float "overflow" 0.5 (Overflow.total_overflow d g ~target_density:1.0 ~cx ~cy);
  check_float "max density" 2.0 (Overflow.max_density d g ~cx ~cy)

let test_overflow_zero_when_spread () =
  let die = Rect.make ~xl:0.0 ~yl:0.0 ~xh:20.0 ~yh:20.0 in
  let b = Builder.create ~die ~row_height:10.0 ~site_width:1.0 () in
  let c0 = Builder.add_cell b ~name:"a" ~master:"X" ~w:10.0 ~h:10.0 ~kind:Types.Movable in
  let c1 = Builder.add_cell b ~name:"b" ~master:"X" ~w:10.0 ~h:10.0 ~kind:Types.Movable in
  Builder.set_position b c0 ~x:0.0 ~y:0.0;
  Builder.set_position b c1 ~x:10.0 ~y:10.0;
  let d = Builder.finish b in
  let g = Grid.build d ~nx:2 ~ny:2 in
  let cx, cy = Pins.centers_of_design d in
  check_float "no overflow" 0.0 (Overflow.total_overflow d g ~target_density:1.0 ~cx ~cy)

let test_overflow_frozen () =
  let d = Tutil.random_design ~cells:8 15 in
  let g = Grid.build d ~nx:4 ~ny:4 in
  let cx, cy = Pins.centers_of_design d in
  let all = Overflow.bin_usage d g ~cx ~cy in
  let fr = Overflow.bin_usage ~frozen:(fun _ -> true) d g ~cx ~cy in
  Alcotest.(check bool) "all frozen means empty" true (Array.for_all (fun v -> v = 0.0) fr);
  Alcotest.(check bool) "some usage otherwise" true (Array.exists (fun v -> v > 0.0) all)

let suite =
  [
    Alcotest.test_case "theta shape" `Quick test_theta_shape;
    Alcotest.test_case "theta C1" `Quick test_theta_c1;
    Alcotest.test_case "theta deriv fd" `Quick test_theta_deriv_fd;
    Alcotest.test_case "grid capacity" `Quick test_grid_capacity;
    Alcotest.test_case "grid fixed subtraction" `Quick test_grid_fixed_subtraction;
    Alcotest.test_case "grid extra obstacles" `Quick test_grid_extra_obstacles;
    Alcotest.test_case "grid indexing" `Quick test_grid_indexing;
    Alcotest.test_case "bell mass conservation" `Quick test_bell_mass_conservation;
    Alcotest.test_case "bell gradient fd" `Quick test_bell_gradient_fd;
    Alcotest.test_case "bell value positive" `Quick test_bell_value_positive;
    Alcotest.test_case "bell spreading" `Quick test_bell_spreading_reduces_penalty;
    Alcotest.test_case "overflow exact" `Quick test_overflow_exact;
    Alcotest.test_case "overflow spread" `Quick test_overflow_zero_when_spread;
    Alcotest.test_case "overflow frozen" `Quick test_overflow_frozen;
  ]
