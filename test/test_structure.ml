(* Tests for Dpp_structure: Dgroup geometry, the alignment potential and
   group snapping. *)

module Rect = Dpp_geom.Rect
module Types = Dpp_netlist.Types
module Design = Dpp_netlist.Design
module Groups = Dpp_netlist.Groups
module Builder = Dpp_netlist.Builder
module Dgroup = Dpp_structure.Dgroup
module Alignment = Dpp_structure.Alignment
module Shaping = Dpp_structure.Shaping
module Pins = Dpp_wirelen.Pins
module Compose = Dpp_gen.Compose

(* A design holding a labelled 4x3 array of uniform cells plus spares. *)
let array_design () =
  let die = Rect.make ~xl:0.0 ~yl:0.0 ~xh:200.0 ~yh:100.0 in
  let b = Builder.create ~die ~row_height:10.0 ~site_width:1.0 () in
  let mk name =
    let id = Builder.add_cell b ~name ~master:"X" ~w:4.0 ~h:10.0 ~kind:Types.Movable in
    let p1 = Builder.add_pin b ~cell:id ~dir:Types.Input ~dx:1.0 ~dy:5.0 () in
    let p2 = Builder.add_pin b ~cell:id ~dir:Types.Output ~dx:3.0 ~dy:5.0 () in
    id, p1, p2
  in
  let rows =
    Array.init 4 (fun s -> Array.init 3 (fun k -> mk (Printf.sprintf "g%d_%d" s k)))
  in
  (* slice-local chains so the design has internal nets *)
  Array.iter
    (fun row ->
      let _, _, o0 = row.(0) and _, i1, o1 = row.(1) and _, i2, _ = row.(2) in
      ignore (Builder.add_net b [ o0; i1 ]);
      ignore (Builder.add_net b [ o1; i2 ]))
    rows;
  let id_rows = Array.map (Array.map (fun (id, _, _) -> id)) rows in
  Builder.add_group b (Groups.make "arr" id_rows);
  (* a couple of spare movables so the design is not only the group *)
  for k = 0 to 3 do
    ignore (Builder.add_cell b ~name:(Printf.sprintf "s%d" k) ~master:"Y" ~w:3.0 ~h:10.0 ~kind:Types.Movable)
  done;
  Builder.finish b

let the_group d = List.hd d.Design.groups

(* ---------------- Dgroup ---------------- *)

let test_dgroup_build () =
  let d = array_design () in
  let dg = Dgroup.build ~fold:1 d (the_group d) in
  Alcotest.(check int) "members" 12 (Array.length dg.Dgroup.cells);
  Alcotest.(check (float 1e-9)) "height" 40.0 dg.Dgroup.height;
  Alcotest.(check (float 1e-9)) "width (3 packed columns)" 12.0 dg.Dgroup.width;
  (* offsets must be inside the footprint *)
  Array.iteri
    (fun i _ ->
      Alcotest.(check bool) "offset inside" true
        (dg.Dgroup.off_x.(i) >= 0.0
        && dg.Dgroup.off_x.(i) <= dg.Dgroup.width
        && dg.Dgroup.off_y.(i) >= 0.0
        && dg.Dgroup.off_y.(i) <= dg.Dgroup.height))
    dg.Dgroup.cells

let test_dgroup_fold () =
  let d = array_design () in
  let dg1 = Dgroup.build ~fold:1 d (the_group d) in
  let dg2 = Dgroup.build ~fold:2 d (the_group d) in
  Alcotest.(check (float 1e-9)) "folded height halves" (dg1.Dgroup.height /. 2.0) dg2.Dgroup.height;
  Alcotest.(check bool) "folded width grows" true (dg2.Dgroup.width > dg1.Dgroup.width)

let test_dgroup_alignment_error_zero_at_array () =
  let d = array_design () in
  let dg = Dgroup.build ~fold:1 d (the_group d) in
  let nc = Design.num_cells d in
  let cx = Array.make nc 0.0 and cy = Array.make nc 0.0 in
  (* place members exactly on the idealized array at origin (50, 20) *)
  Array.iteri
    (fun i c ->
      cx.(c) <- 50.0 +. dg.Dgroup.off_x.(i);
      cy.(c) <- 20.0 +. dg.Dgroup.off_y.(i))
    dg.Dgroup.cells;
  Alcotest.(check (float 1e-9)) "zero error" 0.0 (Dgroup.alignment_error dg ~cx ~cy);
  let ox, oy = Dgroup.origin_of_positions dg ~cx ~cy in
  Alcotest.(check (float 1e-9)) "origin x recovered" 50.0 ox;
  Alcotest.(check (float 1e-9)) "origin y recovered" 20.0 oy

let test_dgroup_internal_coupling () =
  let d = array_design () in
  (* all nets in this toy design are internal to the group *)
  Alcotest.(check (float 1e-9)) "fully internal" 1.0 (Dgroup.internal_coupling d (the_group d))

let test_dgroup_slice_span () =
  let d = array_design () in
  (* all nets are slice-local: span 0 *)
  Alcotest.(check (float 1e-9)) "slice-local" 0.0 (Dgroup.slice_span d (the_group d))

(* ---------------- Alignment ---------------- *)

let test_alignment_zero_and_positive () =
  let d = array_design () in
  let dg = Dgroup.build ~fold:1 d (the_group d) in
  let nc = Design.num_cells d in
  let cx = Array.make nc 0.0 and cy = Array.make nc 0.0 in
  Array.iteri
    (fun i c ->
      cx.(c) <- 10.0 +. dg.Dgroup.off_x.(i);
      cy.(c) <- 10.0 +. dg.Dgroup.off_y.(i))
    dg.Dgroup.cells;
  Alcotest.(check (float 1e-9)) "zero at perfect array" 0.0 (Alignment.value [ dg ] ~cx ~cy);
  (* perturb one member *)
  cx.(dg.Dgroup.cells.(0)) <- cx.(dg.Dgroup.cells.(0)) +. 5.0;
  Alcotest.(check bool) "positive after perturbation" true (Alignment.value [ dg ] ~cx ~cy > 1.0)

let test_alignment_translation_invariant () =
  let d = array_design () in
  let dg = Dgroup.build d (the_group d) in
  let cx, cy = Pins.centers_of_design d in
  let v1 = Alignment.value [ dg ] ~cx ~cy in
  let cx' = Array.map (fun x -> x +. 31.0) cx in
  let v2 = Alignment.value [ dg ] ~cx:cx' ~cy in
  Alcotest.(check (float 1e-6)) "translation invariant" v1 v2

let test_alignment_gradient_fd () =
  let d = array_design () in
  let dg = Dgroup.build d (the_group d) in
  let err =
    Tutil.gradient_error d ~value_grad:(fun ~cx ~cy ~gx ~gy ->
        Alignment.value_grad [ dg ] ~cx ~cy ~gx ~gy)
  in
  if err > 1e-5 then Alcotest.failf "alignment gradient error %.2e" err

(* ---------------- Shaping ---------------- *)

let realistic_design () =
  Compose.build
    {
      Compose.sp_name = "shape";
      sp_seed = 61;
      sp_blocks = [ Compose.Adder 16; Regbank 16 ];
      sp_random_cells = 300;
      sp_utilization = 0.7;
    }

let test_snap_geometry () =
  let d = realistic_design () in
  let dgs = Dgroup.build_all d d.Design.groups in
  let cx, cy = Pins.centers_of_design d in
  let placed =
    Shaping.snap ~pins:(Pins.build d) d dgs ~cx ~cy
  in
  Alcotest.(check int) "all groups snapped" (List.length dgs) (List.length placed);
  (* footprints: inside the die, on grid, mutually disjoint *)
  List.iter
    (fun p ->
      Alcotest.(check bool) "inside die" true
        (Rect.contains_rect (Rect.expand d.Design.die 1e-6) p.Shaping.rect);
      let q = (p.Shaping.origin_y -. d.Design.die.Rect.yl) /. d.Design.row_height in
      Alcotest.(check bool) "row-aligned origin" true (abs_float (q -. Float.round q) < 1e-6))
    placed;
  let rec pairwise = function
    | [] -> ()
    | p :: rest ->
      List.iter
        (fun q ->
          if Rect.overlaps p.Shaping.rect q.Shaping.rect then
            Alcotest.fail "snapped groups overlap")
        rest;
      pairwise rest
  in
  pairwise placed

let test_snap_apply () =
  let d = realistic_design () in
  let dgs = Dgroup.build_all d d.Design.groups in
  let cx, cy = Pins.centers_of_design d in
  let placed =
    Shaping.snap ~pins:(Pins.build d) d dgs ~cx ~cy
  in
  List.iter (fun p -> Shaping.apply p ~cx ~cy) placed;
  (* after apply the alignment error of every snapped group is zero *)
  List.iter
    (fun p ->
      Alcotest.(check (float 1e-9)) "exact array after apply" 0.0
        (Dgroup.alignment_error p.Shaping.dgroup ~cx ~cy))
    placed

let test_snap_oversized_left_soft () =
  let d = realistic_design () in
  let dgs = Dgroup.build_all d d.Design.groups in
  let cx, cy = Pins.centers_of_design d in
  let placed =
    Shaping.snap ~max_die_fraction:0.0001 ~pins:(Pins.build d) d
      dgs ~cx ~cy
  in
  Alcotest.(check int) "nothing snapped under a tiny cap" 0 (List.length placed)

let test_snap_no_room_left_unsnapped () =
  (* a keep-out over the whole die leaves no overlap-free spot: the group
     must stay unsnapped, with its members where GP left them, instead of
     being frozen on top of the obstacle *)
  let d = array_design () in
  let dgs = Dgroup.build_all d d.Design.groups in
  let cx, cy = Pins.centers_of_design d in
  let cx0 = Array.copy cx and cy0 = Array.copy cy in
  let placed =
    Shaping.snap ~extra_obstacles:[ d.Design.die ] ~pins:(Pins.build d) d dgs ~cx ~cy
  in
  Alcotest.(check int) "nothing snapped" 0 (List.length placed);
  Alcotest.(check (array (float 0.0))) "x untouched" cx0 cx;
  Alcotest.(check (array (float 0.0))) "y untouched" cy0 cy

let suite =
  [
    Alcotest.test_case "dgroup build" `Quick test_dgroup_build;
    Alcotest.test_case "dgroup fold" `Quick test_dgroup_fold;
    Alcotest.test_case "dgroup zero error at array" `Quick test_dgroup_alignment_error_zero_at_array;
    Alcotest.test_case "dgroup internal coupling" `Quick test_dgroup_internal_coupling;
    Alcotest.test_case "dgroup slice span" `Quick test_dgroup_slice_span;
    Alcotest.test_case "alignment zero/positive" `Quick test_alignment_zero_and_positive;
    Alcotest.test_case "alignment translation invariant" `Quick test_alignment_translation_invariant;
    Alcotest.test_case "alignment gradient fd" `Quick test_alignment_gradient_fd;
    Alcotest.test_case "snap geometry" `Quick test_snap_geometry;
    Alcotest.test_case "snap apply" `Quick test_snap_apply;
    Alcotest.test_case "snap oversized soft" `Quick test_snap_oversized_left_soft;
    Alcotest.test_case "snap no room unsnapped" `Quick test_snap_no_room_left_unsnapped;
  ]
