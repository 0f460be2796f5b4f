(* Tests for Dpp_geom: Point, Rect, Orient. *)

module Point = Dpp_geom.Point
module Rect = Dpp_geom.Rect
module Orient = Dpp_geom.Orient

let check_float = Alcotest.(check (float 1e-9))

let rect_gen =
  QCheck.Gen.(
    map4
      (fun a b c d -> Rect.make ~xl:a ~yl:b ~xh:(a +. abs_float c) ~yh:(b +. abs_float d))
      (float_range (-100.0) 100.0) (float_range (-100.0) 100.0) (float_range 0.0 50.0)
      (float_range 0.0 50.0))

let arb_rect = QCheck.make ~print:(fun r -> Format.asprintf "%a" Rect.pp r) rect_gen

(* ---------------- Point ---------------- *)

let test_point_ops () =
  let a = Point.make 1.0 2.0 and b = Point.make 4.0 6.0 in
  check_float "dist" 5.0 (Point.dist a b);
  check_float "manhattan" 7.0 (Point.manhattan a b);
  Alcotest.(check bool) "midpoint" true (Point.equal (Point.midpoint a b) (Point.make 2.5 4.0));
  check_float "dot" 16.0 (Point.dot a b);
  Alcotest.(check bool) "add/sub inverse" true
    (Point.equal a (Point.sub (Point.add a b) b));
  Alcotest.(check int) "compare lex" (-1) (compare (Point.compare a b) 0)

let test_point_scale () =
  let p = Point.scale 2.0 (Point.make 1.5 (-3.0)) in
  Alcotest.(check bool) "scaled" true (Point.equal p (Point.make 3.0 (-6.0)))

(* ---------------- Rect ---------------- *)

let test_rect_basic () =
  let r = Rect.make ~xl:1.0 ~yl:2.0 ~xh:5.0 ~yh:4.0 in
  check_float "width" 4.0 (Rect.width r);
  check_float "height" 2.0 (Rect.height r);
  check_float "area" 8.0 (Rect.area r);
  check_float "cx" 3.0 (Rect.center_x r);
  Alcotest.(check bool) "contains center" true (Rect.contains_point r (Rect.center r))

let test_rect_normalise () =
  let r = Rect.make ~xl:5.0 ~yl:4.0 ~xh:1.0 ~yh:2.0 in
  check_float "normalised xl" 1.0 r.Rect.xl;
  check_float "normalised yl" 2.0 r.Rect.yl

let test_rect_overlap_known () =
  let a = Rect.make ~xl:0.0 ~yl:0.0 ~xh:4.0 ~yh:4.0 in
  let b = Rect.make ~xl:2.0 ~yl:2.0 ~xh:6.0 ~yh:6.0 in
  check_float "overlap area" 4.0 (Rect.overlap_area a b);
  let c = Rect.make ~xl:4.0 ~yl:0.0 ~xh:8.0 ~yh:4.0 in
  Alcotest.(check bool) "touching no overlap" false (Rect.overlaps a c);
  check_float "touching area 0" 0.0 (Rect.overlap_area a c)

let test_rect_of_center () =
  let r = Rect.of_center ~cx:5.0 ~cy:5.0 ~w:2.0 ~h:4.0 in
  check_float "xl" 4.0 r.Rect.xl;
  check_float "yh" 7.0 r.Rect.yh

let test_rect_clamp_inside () =
  let outer = Rect.make ~xl:0.0 ~yl:0.0 ~xh:10.0 ~yh:10.0 in
  let r = Rect.make ~xl:8.0 ~yl:(-3.0) ~xh:12.0 ~yh:1.0 in
  let c = Rect.clamp_inside ~outer r in
  Alcotest.(check bool) "inside after clamp" true (Rect.contains_rect outer c);
  check_float "width preserved" (Rect.width r) (Rect.width c)

let prop_overlap_symmetric =
  QCheck.Test.make ~name:"rect overlap_area symmetric" ~count:200
    QCheck.(pair arb_rect arb_rect)
    (fun (a, b) -> abs_float (Rect.overlap_area a b -. Rect.overlap_area b a) < 1e-9)

let prop_intersection_contained =
  QCheck.Test.make ~name:"rect intersection contained in both" ~count:200
    QCheck.(pair arb_rect arb_rect)
    (fun (a, b) ->
      match Rect.intersection a b with
      | None -> true
      | Some i -> Rect.contains_rect a i && Rect.contains_rect b i)

let prop_hull_contains =
  QCheck.Test.make ~name:"rect hull contains both" ~count:200
    QCheck.(pair arb_rect arb_rect)
    (fun (a, b) ->
      let h = Rect.hull a b in
      Rect.contains_rect h a && Rect.contains_rect h b)

let prop_overlap_bounded =
  QCheck.Test.make ~name:"overlap area <= min area" ~count:200
    QCheck.(pair arb_rect arb_rect)
    (fun (a, b) -> Rect.overlap_area a b <= min (Rect.area a) (Rect.area b) +. 1e-9)

(* ---------------- Orient ---------------- *)

let test_orient_strings () =
  List.iter
    (fun o ->
      match Orient.of_string (Orient.to_string o) with
      | Some o' -> Alcotest.(check bool) "roundtrip" true (Orient.equal o o')
      | None -> Alcotest.fail "roundtrip failed")
    Orient.all;
  Alcotest.(check bool) "bad string" true (Orient.of_string "Q" = None)

let test_orient_involutions () =
  List.iter
    (fun o ->
      Alcotest.(check bool) "flip_x involution" true (Orient.equal o (Orient.flip_x (Orient.flip_x o)));
      Alcotest.(check bool) "flip_y involution" true (Orient.equal o (Orient.flip_y (Orient.flip_y o))))
    Orient.all

let test_orient_rotation_order () =
  List.iter
    (fun o ->
      let r4 = Orient.rotate90 (Orient.rotate90 (Orient.rotate90 (Orient.rotate90 o))) in
      Alcotest.(check bool) "rotate^4 = id" true (Orient.equal o r4))
    Orient.all

let test_orient_dims () =
  let w, h = Orient.apply Orient.N ~w:3.0 ~h:10.0 in
  check_float "N width" 3.0 w;
  check_float "N height" 10.0 h;
  let w, h = Orient.apply Orient.E ~w:3.0 ~h:10.0 in
  check_float "E width" 10.0 w;
  check_float "E height" 3.0 h

let prop_offset_in_box =
  let arb =
    QCheck.make
      QCheck.Gen.(
        let* o = oneofl Orient.all in
        let* w = float_range 1.0 20.0 in
        let* h = float_range 1.0 20.0 in
        let* fx = float_range 0.0 1.0 in
        let* fy = float_range 0.0 1.0 in
        return (o, w, h, fx *. w, fy *. h))
  in
  QCheck.Test.make ~name:"oriented pin offset stays inside the oriented box" ~count:500 arb
    (fun (o, w, h, dx, dy) ->
      let ow, oh = Orient.apply o ~w ~h in
      let dx', dy' = Orient.apply_offset o ~w ~h (dx, dy) in
      dx' >= -1e-9 && dx' <= ow +. 1e-9 && dy' >= -1e-9 && dy' <= oh +. 1e-9)

let test_orient_offset_known () =
  (* a pin at the left edge moves to the right edge under FN *)
  let dx, dy = Orient.apply_offset Orient.FN ~w:4.0 ~h:10.0 (1.0, 2.0) in
  check_float "FN dx" 3.0 dx;
  check_float "FN dy" 2.0 dy;
  let dx, dy = Orient.apply_offset Orient.S ~w:4.0 ~h:10.0 (1.0, 2.0) in
  check_float "S dx" 3.0 dx;
  check_float "S dy" 8.0 dy

let suite =
  [
    Alcotest.test_case "point ops" `Quick test_point_ops;
    Alcotest.test_case "point scale" `Quick test_point_scale;
    Alcotest.test_case "rect basic" `Quick test_rect_basic;
    Alcotest.test_case "rect normalise" `Quick test_rect_normalise;
    Alcotest.test_case "rect overlap known" `Quick test_rect_overlap_known;
    Alcotest.test_case "rect of_center" `Quick test_rect_of_center;
    Alcotest.test_case "rect clamp_inside" `Quick test_rect_clamp_inside;
    QCheck_alcotest.to_alcotest prop_overlap_symmetric;
    QCheck_alcotest.to_alcotest prop_intersection_contained;
    QCheck_alcotest.to_alcotest prop_hull_contains;
    QCheck_alcotest.to_alcotest prop_overlap_bounded;
    Alcotest.test_case "orient strings" `Quick test_orient_strings;
    Alcotest.test_case "orient involutions" `Quick test_orient_involutions;
    Alcotest.test_case "orient rotations" `Quick test_orient_rotation_order;
    Alcotest.test_case "orient dims" `Quick test_orient_dims;
    QCheck_alcotest.to_alcotest prop_offset_in_box;
    Alcotest.test_case "orient offset known" `Quick test_orient_offset_known;
  ]
