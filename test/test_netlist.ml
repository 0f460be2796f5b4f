(* Tests for Dpp_netlist: Builder, Design, Groups, Validate, Nstats. *)

module Rect = Dpp_geom.Rect
module Types = Dpp_netlist.Types
module Builder = Dpp_netlist.Builder
module Design = Dpp_netlist.Design
module Groups = Dpp_netlist.Groups
module Validate = Dpp_netlist.Validate
module Nstats = Dpp_netlist.Nstats

let check_float = Alcotest.(check (float 1e-9))

let die = Rect.make ~xl:0.0 ~yl:0.0 ~xh:100.0 ~yh:50.0

let fresh_builder () = Builder.create ~name:"t" ~die ~row_height:10.0 ~site_width:1.0 ()

(* A small design: 3 cells in a chain plus one pad. *)
let chain_design () =
  let b = fresh_builder () in
  let mk name =
    let id = Builder.add_cell b ~name ~master:"INV" ~w:2.0 ~h:10.0 ~kind:Types.Movable in
    let i = Builder.add_pin b ~cell:id ~dir:Types.Input ~dx:0.5 ~dy:5.0 () in
    let o = Builder.add_pin b ~cell:id ~dir:Types.Output ~dx:1.5 ~dy:5.0 () in
    id, i, o
  in
  let _c0, i0, o0 = mk "c0" in
  let _c1, i1, o1 = mk "c1" in
  let c2, i2, o2 = mk "c2" in
  let pad = Builder.add_cell b ~name:"pad0" ~master:"PAD" ~w:1.0 ~h:1.0 ~kind:Types.Pad in
  let pad_pin = Builder.add_pin b ~cell:pad ~dir:Types.Input () in
  Builder.set_position b pad ~x:99.0 ~y:0.0;
  ignore (Builder.add_net b ~name:"n0" [ o0; i1 ]);
  ignore (Builder.add_net b ~name:"n1" [ o1; i2 ]);
  ignore (Builder.add_net b ~name:"n2" [ o2; pad_pin ]);
  ignore i0;
  Builder.set_position b c2 ~x:10.0 ~y:20.0;
  Builder.finish b

(* ---------------- Builder ---------------- *)

let test_builder_ids () =
  let d = chain_design () in
  Alcotest.(check int) "cells" 4 (Design.num_cells d);
  Alcotest.(check int) "nets" 3 (Design.num_nets d);
  Alcotest.(check int) "pins" 7 (Design.num_pins d);
  Alcotest.(check string) "name preserved" "c1" (Design.cell d 1).Types.c_name

let test_builder_duplicate_name () =
  let b = fresh_builder () in
  ignore (Builder.add_cell b ~name:"x" ~master:"INV" ~w:2.0 ~h:10.0 ~kind:Types.Movable);
  Alcotest.(check bool) "raises" true
    (try
       ignore (Builder.add_cell b ~name:"x" ~master:"INV" ~w:2.0 ~h:10.0 ~kind:Types.Movable);
       false
     with Invalid_argument _ -> true)

let test_builder_bad_dimensions () =
  let b = fresh_builder () in
  Alcotest.(check bool) "zero width rejected" true
    (try
       ignore (Builder.add_cell b ~name:"z" ~master:"INV" ~w:0.0 ~h:10.0 ~kind:Types.Movable);
       false
     with Invalid_argument _ -> true)

let test_builder_double_connect () =
  let b = fresh_builder () in
  let c = Builder.add_cell b ~name:"c" ~master:"INV" ~w:2.0 ~h:10.0 ~kind:Types.Movable in
  let p = Builder.add_pin b ~cell:c ~dir:Types.Output () in
  let q = Builder.add_pin b ~cell:c ~dir:Types.Input () in
  ignore (Builder.add_net b [ p; q ]);
  Alcotest.(check bool) "pin reuse rejected" true
    (try
       ignore (Builder.add_net b [ p ]);
       false
     with Invalid_argument _ -> true)

let test_builder_empty_net () =
  let b = fresh_builder () in
  Alcotest.(check bool) "empty net rejected" true
    (try
       ignore (Builder.add_net b []);
       false
     with Invalid_argument _ -> true)

let test_builder_bad_die () =
  Alcotest.(check bool) "non-multiple die rejected" true
    (try
       ignore
         (Builder.create ~die:(Rect.make ~xl:0.0 ~yl:0.0 ~xh:10.0 ~yh:15.0) ~row_height:10.0
            ~site_width:1.0 ());
       false
     with Invalid_argument _ -> true)

let test_builder_use_after_finish () =
  let b = fresh_builder () in
  ignore (Builder.add_cell b ~name:"c" ~master:"INV" ~w:2.0 ~h:10.0 ~kind:Types.Movable);
  ignore (Builder.finish b);
  Alcotest.(check bool) "finished builder rejects" true
    (try
       ignore (Builder.add_cell b ~name:"d" ~master:"INV" ~w:2.0 ~h:10.0 ~kind:Types.Movable);
       false
     with Invalid_argument _ -> true)

let test_builder_set_die () =
  let b = fresh_builder () in
  Builder.set_die b (Rect.make ~xl:0.0 ~yl:0.0 ~xh:200.0 ~yh:80.0);
  let d = Builder.finish b in
  Alcotest.(check int) "rows updated" 8 d.Design.num_rows

(* ---------------- Design ---------------- *)

let test_design_geometry () =
  let d = chain_design () in
  check_float "center x" 11.0 (Design.cell_center_x d 2);
  check_float "center y" 25.0 (Design.cell_center_y d 2);
  Design.set_center d 2 50.0 25.0;
  check_float "moved x" 49.0 d.Design.x.(2);
  let px, py = Design.pin_position d 4 in
  (* pin 4 = input of c2 at dx 0.5 *)
  check_float "pin x" 49.5 px;
  check_float "pin y" 25.0 py

let test_design_rows () =
  let d = chain_design () in
  check_float "row 2 y" 20.0 (Design.row_y d 2);
  Alcotest.(check int) "row of y" 2 (Design.row_of_y d 25.0);
  Alcotest.(check int) "row clamped" 4 (Design.row_of_y d 1000.0)

let test_design_populations () =
  let d = chain_design () in
  Alcotest.(check int) "movable" 3 (Array.length (Design.movable_ids d));
  Alcotest.(check int) "fixed+pads" 1 (Array.length (Design.fixed_ids d));
  check_float "movable area" 60.0 (Design.movable_area d);
  check_float "avg degree" 2.0 (Design.average_net_degree d)

let test_design_copy_restore () =
  let d = chain_design () in
  let x, y = Design.copy_positions d in
  Design.set_center d 0 77.0 33.0;
  Design.restore_positions d x y;
  check_float "restored" (Design.cell_center_x d 0) 1.0

(* ---------------- Groups ---------------- *)

let test_groups_basic () =
  let g = Groups.make "g" [| [| 0; 1 |]; [| 2; -1 |] |] in
  Alcotest.(check int) "slices" 2 (Groups.num_slices g);
  Alcotest.(check int) "stages" 2 (Groups.num_stages g);
  Alcotest.(check int) "cells" 3 (Groups.cell_count g);
  Alcotest.(check bool) "mem" true (Groups.mem g 2);
  Alcotest.(check bool) "not mem hole" false (Groups.mem g (-1));
  Alcotest.(check bool) "slice lookup" true (Groups.slice_of_cell g 2 = Some 1);
  Alcotest.(check bool) "stage lookup" true (Groups.stage_of_cell g 1 = Some 1)

let test_groups_ragged () =
  Alcotest.(check bool) "ragged rejected" true
    (try
       ignore (Groups.make "bad" [| [| 0 |]; [| 1; 2 |] |]);
       false
     with Invalid_argument _ -> true)

let test_groups_transpose () =
  let g = Groups.make "g" [| [| 0; 1; 2 |]; [| 3; 4; 5 |] |] in
  let t = Groups.transpose g in
  Alcotest.(check int) "transposed slices" 3 (Groups.num_slices t);
  Alcotest.(check bool) "entry moved" true (t.Groups.g_rows.(1).(0) = 1)

let test_groups_jaccard () =
  let a = Groups.make "a" [| [| 0; 1 |]; [| 2; 3 |] |] in
  let b = Groups.make "b" [| [| 2; 3 |]; [| 4; 5 |] |] in
  check_float "jaccard" (1.0 /. 3.0) (Groups.jaccard a b);
  check_float "self jaccard" 1.0 (Groups.jaccard a a)

(* ---------------- Validate ---------------- *)

let test_validate_clean () =
  let d = chain_design () in
  let issues = Validate.check d in
  Alcotest.(check bool) "clean" true (Validate.is_clean issues)

let test_validate_degenerate_net () =
  let b = fresh_builder () in
  let c = Builder.add_cell b ~name:"c" ~master:"INV" ~w:2.0 ~h:10.0 ~kind:Types.Movable in
  let p = Builder.add_pin b ~cell:c ~dir:Types.Output () in
  ignore (Builder.add_net b [ p ]);
  let d = Builder.finish b in
  let issues = Validate.check d in
  Alcotest.(check bool) "single-pin net warns" true
    (List.exists (fun i -> i.Validate.severity = Validate.Warning) issues);
  Alcotest.(check bool) "still clean" true (Validate.is_clean issues)

let test_validate_overfull () =
  let small = Rect.make ~xl:0.0 ~yl:0.0 ~xh:10.0 ~yh:10.0 in
  let b = Builder.create ~die:small ~row_height:10.0 ~site_width:1.0 () in
  for k = 0 to 19 do
    ignore
      (Builder.add_cell b ~name:(Printf.sprintf "c%d" k) ~master:"INV" ~w:2.0 ~h:10.0
         ~kind:Types.Movable)
  done;
  let d = Builder.finish b in
  Alcotest.(check bool) "overfull is an error" false (Validate.is_clean (Validate.check d))

let test_validate_tall_cell () =
  (* heights that are whole row multiples are legal movable macros;
     fractional-row heights are errors *)
  let b = fresh_builder () in
  ignore (Builder.add_cell b ~name:"macro" ~master:"X" ~w:2.0 ~h:20.0 ~kind:Types.Movable);
  let d = Builder.finish b in
  Alcotest.(check bool) "two-row movable macro is fine" true
    (Validate.is_clean (Validate.check d));
  let b = fresh_builder () in
  ignore (Builder.add_cell b ~name:"bad" ~master:"X" ~w:2.0 ~h:15.0 ~kind:Types.Movable);
  let d = Builder.finish b in
  Alcotest.(check bool) "fractional-row movable is an error" false
    (Validate.is_clean (Validate.check d))

let test_validate_group_fixed_member () =
  let b = fresh_builder () in
  let f = Builder.add_cell b ~name:"blk" ~master:"MACRO" ~w:5.0 ~h:10.0 ~kind:Types.Fixed in
  let c = Builder.add_cell b ~name:"c" ~master:"INV" ~w:2.0 ~h:10.0 ~kind:Types.Movable in
  Builder.add_group b (Groups.make "g" [| [| f |]; [| c |] |]);
  let d = Builder.finish b in
  Alcotest.(check bool) "fixed group member is an error" false
    (Validate.is_clean (Validate.check d))

(* ---------------- Nstats ---------------- *)

let test_nstats () =
  let d = chain_design () in
  let s = Nstats.compute d in
  Alcotest.(check int) "cells" 4 s.Nstats.s_cells;
  Alcotest.(check int) "movable" 3 s.Nstats.s_movable;
  Alcotest.(check int) "pads" 1 s.Nstats.s_pads;
  Alcotest.(check int) "row count" 5 s.Nstats.s_rows;
  Alcotest.(check int) "row length matches header" (List.length Nstats.header)
    (List.length (Nstats.to_row s))

let suite =
  [
    Alcotest.test_case "builder ids" `Quick test_builder_ids;
    Alcotest.test_case "builder duplicate name" `Quick test_builder_duplicate_name;
    Alcotest.test_case "builder bad dims" `Quick test_builder_bad_dimensions;
    Alcotest.test_case "builder double connect" `Quick test_builder_double_connect;
    Alcotest.test_case "builder empty net" `Quick test_builder_empty_net;
    Alcotest.test_case "builder bad die" `Quick test_builder_bad_die;
    Alcotest.test_case "builder use after finish" `Quick test_builder_use_after_finish;
    Alcotest.test_case "builder set_die" `Quick test_builder_set_die;
    Alcotest.test_case "design geometry" `Quick test_design_geometry;
    Alcotest.test_case "design rows" `Quick test_design_rows;
    Alcotest.test_case "design populations" `Quick test_design_populations;
    Alcotest.test_case "design copy/restore" `Quick test_design_copy_restore;
    Alcotest.test_case "groups basic" `Quick test_groups_basic;
    Alcotest.test_case "groups ragged" `Quick test_groups_ragged;
    Alcotest.test_case "groups transpose" `Quick test_groups_transpose;
    Alcotest.test_case "groups jaccard" `Quick test_groups_jaccard;
    Alcotest.test_case "validate clean" `Quick test_validate_clean;
    Alcotest.test_case "validate degenerate net" `Quick test_validate_degenerate_net;
    Alcotest.test_case "validate overfull" `Quick test_validate_overfull;
    Alcotest.test_case "validate tall cell" `Quick test_validate_tall_cell;
    Alcotest.test_case "validate fixed group member" `Quick test_validate_group_fixed_member;
    Alcotest.test_case "nstats" `Quick test_nstats;
  ]
