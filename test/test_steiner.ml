(* Tests for Dpp_steiner: RMST and the RSMT heuristic. *)

module Mst = Dpp_steiner.Mst
module Rsmt = Dpp_steiner.Rsmt

let check_float = Alcotest.(check (float 1e-9))

let hpwl_of points =
  match Array.length points with
  | 0 -> 0.0
  | _ ->
    let xs = Array.map fst points and ys = Array.map snd points in
    let mx = Array.fold_left max neg_infinity and mn = Array.fold_left min infinity in
    mx xs -. mn xs +. mx ys -. mn ys

let test_mst_known () =
  (* unit square: RMST = 3 edges of length 1 *)
  let square = [| (0.0, 0.0); (1.0, 0.0); (0.0, 1.0); (1.0, 1.0) |] in
  check_float "square mst" 3.0 (Mst.length square);
  let line = [| (0.0, 0.0); (5.0, 0.0); (2.0, 0.0) |] in
  check_float "collinear mst" 5.0 (Mst.length line)

let test_mst_edges () =
  let points = [| (0.0, 0.0); (1.0, 0.0); (2.0, 0.0) |] in
  let edges = Mst.edges points in
  Alcotest.(check int) "n-1 edges" 2 (List.length edges);
  check_float "edge total" 2.0
    (List.fold_left
       (fun acc (a, b) ->
         let xa, ya = points.(a) and xb, yb = points.(b) in
         acc +. abs_float (xa -. xb) +. abs_float (ya -. yb))
       0.0 edges)

let test_mst_degenerate () =
  check_float "empty" 0.0 (Mst.length [||]);
  check_float "single" 0.0 (Mst.length [| (3.0, 4.0) |]);
  check_float "pair" 7.0 (Mst.length [| (0.0, 0.0); (3.0, 4.0) |])

let test_rsmt_exact_small () =
  check_float "two points" 7.0 (Rsmt.length [| (0.0, 0.0); (3.0, 4.0) |]);
  (* three points: RSMT = HPWL (median star) *)
  let three = [| (0.0, 0.0); (4.0, 1.0); (2.0, 5.0) |] in
  check_float "three points" (hpwl_of three) (Rsmt.length three)

let test_rsmt_improves_cross () =
  (* plus-sign configuration: the Steiner point at the center wins *)
  let cross = [| (0.0, 1.0); (2.0, 1.0); (1.0, 0.0); (1.0, 2.0) |] in
  let mst = Mst.length cross in
  let rsmt = Rsmt.length cross in
  Alcotest.(check bool) "steiner beats mst" true (rsmt < mst -. 0.5);
  check_float "optimal cross" 4.0 rsmt

let point_set_gen =
  QCheck.Gen.(
    list_size (2 -- 9)
      (pair (float_range 0.0 100.0) (float_range 0.0 100.0))
    |> map Array.of_list)

let arb_points = QCheck.make point_set_gen

let prop_rsmt_le_mst =
  QCheck.Test.make ~name:"rsmt <= rmst" ~count:200 arb_points (fun pts ->
      Rsmt.length pts <= Mst.length pts +. 1e-6)

let prop_rsmt_ge_hpwl =
  QCheck.Test.make ~name:"rsmt >= hpwl (spanning lower bound)" ~count:200 arb_points
    (fun pts -> Rsmt.length pts >= hpwl_of pts -. 1e-6)

let prop_mst_ratio =
  (* RMST is at most 1.5x the RSMT; our heuristic sits between, so
     heuristic >= 2/3 * RMST *)
  QCheck.Test.make ~name:"rsmt >= 2/3 rmst" ~count:200 arb_points (fun pts ->
      Rsmt.length pts >= (2.0 /. 3.0 *. Mst.length pts) -. 1e-6)

let test_rsmt_degree_fallback () =
  (* above the iterated-1-steiner limit the result must equal the RMST *)
  let rng = Dpp_util.Rng.create 5 in
  let pts =
    Array.init 15 (fun _ -> Dpp_util.Rng.float rng 50.0, Dpp_util.Rng.float rng 50.0)
  in
  check_float "falls back to mst" (Mst.length pts) (Rsmt.length pts)

let test_totals_on_design () =
  let d = Tutil.random_design ~cells:10 ~nets:8 77 in
  let pins = Dpp_wirelen.Pins.build d in
  let cx, cy = Dpp_wirelen.Pins.centers_of_design d in
  let st = Rsmt.total pins ~cx ~cy in
  let hp = Dpp_wirelen.Hpwl.total pins ~cx ~cy in
  Alcotest.(check bool) "steiner >= hpwl" true (st >= hp -. 1e-6);
  Alcotest.(check (float 1e-9)) "convenience wrapper" st (Rsmt.total_of_design d)

(* The record's total equals a full recompute whatever it reuses: an
   empty record, its own, one from before a cell moved, or another
   design's. *)
let test_measure_reuse () =
  let d = Tutil.random_design ~cells:30 ~nets:40 5 in
  let pins = Dpp_wirelen.Pins.build d in
  let cx, cy = Dpp_wirelen.Pins.centers_of_design d in
  let same what want got =
    Alcotest.(check bool) (Printf.sprintf "%s: %.17g = %.17g" what want got) true (Float.equal want got)
  in
  let full = Rsmt.total pins ~cx ~cy in
  let fresh, t0 = Rsmt.measure pins ~cx ~cy ~reuse:Rsmt.empty in
  same "empty record" full t0;
  let _, t1 = Rsmt.measure pins ~cx ~cy ~reuse:fresh in
  same "own record" full t1;
  let cx' = Array.copy cx in
  cx'.(3) <- cx'.(3) +. 7.5;
  let _, t2 = Rsmt.measure pins ~cx:cx' ~cy ~reuse:fresh in
  same "one cell moved" (Rsmt.total pins ~cx:cx' ~cy) t2;
  let other = Tutil.random_design ~cells:30 ~nets:40 6 in
  let opins = Dpp_wirelen.Pins.build other in
  let ox, oy = Dpp_wirelen.Pins.centers_of_design other in
  let orec, _ = Rsmt.measure opins ~cx:ox ~cy:oy ~reuse:Rsmt.empty in
  let _, t3 = Rsmt.measure pins ~cx ~cy ~reuse:orec in
  same "another design's record" full t3

let suite =
  [
    Alcotest.test_case "mst known" `Quick test_mst_known;
    Alcotest.test_case "mst edges" `Quick test_mst_edges;
    Alcotest.test_case "mst degenerate" `Quick test_mst_degenerate;
    Alcotest.test_case "rsmt exact small" `Quick test_rsmt_exact_small;
    Alcotest.test_case "rsmt improves cross" `Quick test_rsmt_improves_cross;
    QCheck_alcotest.to_alcotest prop_rsmt_le_mst;
    QCheck_alcotest.to_alcotest prop_rsmt_ge_hpwl;
    QCheck_alcotest.to_alcotest prop_mst_ratio;
    Alcotest.test_case "rsmt degree fallback" `Quick test_rsmt_degree_fallback;
    Alcotest.test_case "design totals" `Quick test_totals_on_design;
    Alcotest.test_case "measure reuse" `Quick test_measure_reuse;
  ]
