(* Tests for Dpp_viz: SVG writer and placement plots. *)

module Svg = Dpp_viz.Svg
module Plot = Dpp_viz.Plot
module Pins = Dpp_wirelen.Pins

let contains ~needle hay =
  let nl = String.length needle and hl = String.length hay in
  let rec go i = i + nl <= hl && (String.sub hay i nl = needle || go (i + 1)) in
  go 0

let test_svg_shapes () =
  let s = Svg.create ~width:100.0 ~height:50.0 () in
  Svg.rect s ~x:10.0 ~y:10.0 ~w:20.0 ~h:5.0 ~fill:"#ff0000" ();
  Svg.line s ~x1:0.0 ~y1:0.0 ~x2:100.0 ~y2:50.0 ();
  Svg.text s ~x:5.0 ~y:5.0 "hello <&> \"world\"";
  let out = Svg.to_string s in
  Alcotest.(check bool) "has rect" true (contains ~needle:"<rect" out);
  Alcotest.(check bool) "has line" true (contains ~needle:"<line" out);
  Alcotest.(check bool) "text escaped" true (contains ~needle:"&lt;&amp;&gt;" out);
  Alcotest.(check bool) "valid xml root" true (contains ~needle:"</svg>" out);
  (* y flip: user y=10 with h=5 -> svg y = 50 - 15 = 35 *)
  Alcotest.(check bool) "y flipped" true (contains ~needle:"y=\"35.000\"" out)

let test_svg_colors () =
  Alcotest.(check string) "palette cycles" (Svg.color_of_index 0) (Svg.color_of_index 12);
  Alcotest.(check bool) "heat endpoints" true
    (Svg.heat_color 0.0 = "#0000ff" && Svg.heat_color 1.0 = "#ff0000");
  (* clamping *)
  Alcotest.(check string) "clamps below" (Svg.heat_color 0.0) (Svg.heat_color (-3.0));
  Alcotest.(check string) "clamps above" (Svg.heat_color 1.0) (Svg.heat_color 42.0)

let test_plot_placement_file () =
  let d = Dpp_gen.Compose.build (List.nth Dpp_gen.Presets.suite 4) in
  let path = Filename.temp_file "dpp_plot" ".svg" in
  Plot.placement ~title:"test" d ~path;
  let ic = open_in path in
  let len = in_channel_length ic in
  close_in ic;
  Sys.remove path;
  (* every cell is a rect: the file must be substantial *)
  Alcotest.(check bool) "non-trivial svg written" true (len > 50_000)

let test_plot_with_congestion () =
  let d = Dpp_gen.Compose.build (List.nth Dpp_gen.Presets.suite 4) in
  let cx, cy = Pins.centers_of_design d in
  let rudy = Dpp_congest.Rudy.compute ~pins:(Pins.build d) d ~cx ~cy in
  let path = Filename.temp_file "dpp_plot" ".svg" in
  Plot.placement ~congestion:rudy d ~path;
  let ok = Sys.file_exists path in
  Sys.remove path;
  Alcotest.(check bool) "written" true ok

let test_plot_compare () =
  let d = Dpp_gen.Compose.build (List.nth Dpp_gen.Presets.suite 4) in
  let path = Filename.temp_file "dpp_cmp" ".svg" in
  Plot.compare_placements ~left:d ~right:d ~path ();
  let ic = open_in path in
  let content = really_input_string ic (in_channel_length ic) in
  close_in ic;
  Sys.remove path;
  Alcotest.(check bool) "both titles present" true
    (contains ~needle:"left" content && contains ~needle:"right" content)

let suite =
  [
    Alcotest.test_case "svg shapes" `Quick test_svg_shapes;
    Alcotest.test_case "svg colors" `Quick test_svg_colors;
    Alcotest.test_case "plot placement" `Quick test_plot_placement_file;
    Alcotest.test_case "plot congestion" `Quick test_plot_with_congestion;
    Alcotest.test_case "plot compare" `Quick test_plot_compare;
  ]
