(* Tests for Dpp_util: Rng, Union_find, Statx, Dyn, Csvout. *)

module Rng = Dpp_util.Rng
module Union_find = Dpp_util.Union_find
module Statx = Dpp_util.Statx
module Dyn = Dpp_util.Dyn
module Csvout = Dpp_util.Csvout

let check_float = Alcotest.(check (float 1e-9))

(* ---------------- Rng ---------------- *)

let test_rng_deterministic () =
  let a = Rng.create 42 and b = Rng.create 42 in
  for _ = 1 to 100 do
    Alcotest.(check int64) "same stream" (Rng.bits64 a) (Rng.bits64 b)
  done

let test_rng_seed_sensitivity () =
  let a = Rng.create 1 and b = Rng.create 2 in
  let xs = List.init 8 (fun _ -> Rng.bits64 a) in
  let ys = List.init 8 (fun _ -> Rng.bits64 b) in
  Alcotest.(check bool) "different seeds differ" true (xs <> ys)

let test_rng_split_independent () =
  let parent = Rng.create 7 in
  let child1 = Rng.split parent in
  let child2 = Rng.split parent in
  let a = List.init 8 (fun _ -> Rng.bits64 child1) in
  let b = List.init 8 (fun _ -> Rng.bits64 child2) in
  Alcotest.(check bool) "children differ" true (a <> b)

let test_rng_copy () =
  let a = Rng.create 3 in
  ignore (Rng.bits64 a);
  let b = Rng.copy a in
  Alcotest.(check int64) "copy replays" (Rng.bits64 a) (Rng.bits64 b)

let test_rng_int_bounds () =
  let r = Rng.create 11 in
  for _ = 1 to 1000 do
    let v = Rng.int r 17 in
    Alcotest.(check bool) "in range" true (v >= 0 && v < 17)
  done;
  Alcotest.check_raises "zero bound rejected" (Invalid_argument "Rng.int: bound must be positive")
    (fun () -> ignore (Rng.int r 0))

let test_rng_int_in () =
  let r = Rng.create 12 in
  for _ = 1 to 500 do
    let v = Rng.int_in r (-5) 5 in
    Alcotest.(check bool) "in closed range" true (v >= -5 && v <= 5)
  done

let test_rng_float_bounds () =
  let r = Rng.create 13 in
  for _ = 1 to 1000 do
    let v = Rng.float r 2.5 in
    Alcotest.(check bool) "in range" true (v >= 0.0 && v < 2.5)
  done

let test_rng_bernoulli_bias () =
  let r = Rng.create 14 in
  let n = 20_000 in
  let hits = ref 0 in
  for _ = 1 to n do
    if Rng.bernoulli r 0.3 then incr hits
  done;
  let p = float_of_int !hits /. float_of_int n in
  Alcotest.(check bool) "approx 0.3" true (abs_float (p -. 0.3) < 0.02)

let test_rng_gaussian_moments () =
  let r = Rng.create 15 in
  let n = 50_000 in
  let samples = Array.init n (fun _ -> Rng.gaussian r ~mean:2.0 ~stddev:3.0) in
  Alcotest.(check bool) "mean approx 2" true (abs_float (Statx.mean samples -. 2.0) < 0.1);
  Alcotest.(check bool) "stddev approx 3" true (abs_float (Statx.stddev samples -. 3.0) < 0.1)

let test_rng_shuffle_permutation =
  QCheck.Test.make ~name:"shuffle is a permutation" ~count:100
    QCheck.(pair small_int (small_list int))
    (fun (seed, l) ->
      let a = Array.of_list l in
      let b = Array.copy a in
      Rng.shuffle (Rng.create seed) b;
      List.sort compare (Array.to_list a) = List.sort compare (Array.to_list b))

let test_rng_sample_without_replacement () =
  let r = Rng.create 16 in
  let s = Rng.sample_without_replacement r 5 10 in
  Alcotest.(check int) "size" 5 (Array.length s);
  let sorted = List.sort_uniq compare (Array.to_list s) in
  Alcotest.(check int) "distinct" 5 (List.length sorted);
  List.iter (fun v -> Alcotest.(check bool) "in range" true (v >= 0 && v < 10)) sorted

(* ---------------- Union_find ---------------- *)

let test_uf_basic () =
  let u = Union_find.create 6 in
  Alcotest.(check int) "initial sets" 6 (Union_find.count_sets u);
  Union_find.union u 0 1;
  Union_find.union u 1 2;
  Alcotest.(check bool) "0~2" true (Union_find.same u 0 2);
  Alcotest.(check bool) "0!~3" false (Union_find.same u 0 3);
  Alcotest.(check int) "sizes" 3 (Union_find.size u 2);
  Alcotest.(check int) "sets after unions" 4 (Union_find.count_sets u)

let test_uf_idempotent_union () =
  let u = Union_find.create 4 in
  Union_find.union u 0 1;
  Union_find.union u 0 1;
  Alcotest.(check int) "size stable" 2 (Union_find.size u 0)

let test_uf_groups () =
  let u = Union_find.create 5 in
  Union_find.union u 0 3;
  Union_find.union u 1 4;
  let groups = Union_find.groups u in
  let non_empty = Array.to_list groups |> List.filter (fun g -> g <> []) in
  Alcotest.(check int) "three groups" 3 (List.length non_empty);
  let all = List.concat non_empty |> List.sort compare in
  Alcotest.(check (list int)) "all members" [ 0; 1; 2; 3; 4 ] all

let test_uf_transitivity =
  QCheck.Test.make ~name:"union-find transitivity" ~count:50
    QCheck.(list (pair (int_bound 19) (int_bound 19)))
    (fun pairs ->
      let u = Union_find.create 20 in
      List.iter (fun (a, b) -> Union_find.union u a b) pairs;
      (* find is consistent: same root <-> same set *)
      List.for_all
        (fun (a, b) -> Union_find.same u a b = (Union_find.find u a = Union_find.find u b))
        pairs)

(* ---------------- Statx ---------------- *)

let test_statx_known () =
  let a = [| 1.0; 2.0; 3.0; 4.0 |] in
  check_float "mean" 2.5 (Statx.mean a);
  check_float "median" 2.5 (Statx.median a);
  check_float "variance" 1.25 (Statx.variance a);
  check_float "sum" 10.0 (Statx.sum a);
  check_float "min" 1.0 (Statx.minimum a);
  check_float "max" 4.0 (Statx.maximum a)

let test_statx_geomean () =
  check_float "geomean" 2.0 (Statx.geomean [| 1.0; 2.0; 4.0 |]);
  Alcotest.check_raises "non-positive rejected"
    (Invalid_argument "Statx.geomean: non-positive value") (fun () ->
      ignore (Statx.geomean [| 1.0; 0.0 |]))

let test_statx_empty () =
  check_float "empty mean" 0.0 (Statx.mean [||]);
  check_float "empty median" 0.0 (Statx.median [||]);
  check_float "empty geomean" 1.0 (Statx.geomean [||])

let test_statx_quantile () =
  let a = [| 10.0; 20.0; 30.0; 40.0 |] in
  check_float "q0" 10.0 (Statx.quantile a 0.0);
  check_float "q1" 40.0 (Statx.quantile a 1.0);
  check_float "q50" 25.0 (Statx.quantile a 0.5)

let test_statx_entropy () =
  check_float "uniform entropy" (log 4.0) (Statx.entropy [| 1.0; 1.0; 1.0; 1.0 |]);
  check_float "point mass" 0.0 (Statx.entropy [| 5.0; 0.0 |])

let test_statx_pearson () =
  let x = [| 1.0; 2.0; 3.0 |] in
  check_float "perfect corr" 1.0 (Statx.pearson x [| 2.0; 4.0; 6.0 |]);
  check_float "perfect anticorr" (-1.0) (Statx.pearson x [| 3.0; 2.0; 1.0 |]);
  check_float "constant" 0.0 (Statx.pearson x [| 1.0; 1.0; 1.0 |])

let test_statx_geomean_mean =
  QCheck.Test.make ~name:"geomean <= mean (AM-GM)" ~count:200
    QCheck.(list_of_size Gen.(1 -- 20) (float_range 0.001 1000.0))
    (fun l ->
      let a = Array.of_list l in
      Statx.geomean a <= Statx.mean a +. 1e-9)

(* ---------------- Dyn ---------------- *)

let test_dyn_push_get () =
  let v = Dyn.create () in
  for i = 0 to 99 do
    Dyn.push v (i * i)
  done;
  Alcotest.(check int) "length" 100 (Dyn.length v);
  Alcotest.(check int) "get" 81 (Dyn.get v 9);
  Dyn.set v 9 7;
  Alcotest.(check int) "set" 7 (Dyn.get v 9);
  Alcotest.check_raises "oob" (Invalid_argument "Dyn: index out of bounds") (fun () ->
      ignore (Dyn.get v 100))

let test_dyn_roundtrip =
  QCheck.Test.make ~name:"dyn of_array/to_array roundtrip" ~count:100
    QCheck.(array small_int)
    (fun a -> Dyn.to_array (Dyn.of_array a) = a)

(* ---------------- Csvout ---------------- *)

let test_csv_escaping () =
  Alcotest.(check string) "plain" "abc" (Csvout.escape_field "abc");
  Alcotest.(check string) "comma" "\"a,b\"" (Csvout.escape_field "a,b");
  Alcotest.(check string) "quote" "\"a\"\"b\"" (Csvout.escape_field "a\"b");
  Alcotest.(check string) "row" "a,\"b,c\",d" (Csvout.row_to_string [ "a"; "b,c"; "d" ])

let test_csv_write_read () =
  let path = Filename.temp_file "dpp_test" ".csv" in
  Csvout.write path [ [ "h1"; "h2" ]; [ "1"; "x,y" ] ];
  let ic = open_in path in
  let l1 = input_line ic in
  let l2 = input_line ic in
  close_in ic;
  Sys.remove path;
  Alcotest.(check string) "header" "h1,h2" l1;
  Alcotest.(check string) "row" "1,\"x,y\"" l2

let suite =
  [
    Alcotest.test_case "rng deterministic" `Quick test_rng_deterministic;
    Alcotest.test_case "rng seed sensitivity" `Quick test_rng_seed_sensitivity;
    Alcotest.test_case "rng split independent" `Quick test_rng_split_independent;
    Alcotest.test_case "rng copy" `Quick test_rng_copy;
    Alcotest.test_case "rng int bounds" `Quick test_rng_int_bounds;
    Alcotest.test_case "rng int_in" `Quick test_rng_int_in;
    Alcotest.test_case "rng float bounds" `Quick test_rng_float_bounds;
    Alcotest.test_case "rng bernoulli bias" `Quick test_rng_bernoulli_bias;
    Alcotest.test_case "rng gaussian moments" `Quick test_rng_gaussian_moments;
    QCheck_alcotest.to_alcotest test_rng_shuffle_permutation;
    Alcotest.test_case "rng sampling" `Quick test_rng_sample_without_replacement;
    Alcotest.test_case "union-find basic" `Quick test_uf_basic;
    Alcotest.test_case "union-find idempotent" `Quick test_uf_idempotent_union;
    Alcotest.test_case "union-find groups" `Quick test_uf_groups;
    QCheck_alcotest.to_alcotest test_uf_transitivity;
    Alcotest.test_case "statx known values" `Quick test_statx_known;
    Alcotest.test_case "statx geomean" `Quick test_statx_geomean;
    Alcotest.test_case "statx empty" `Quick test_statx_empty;
    Alcotest.test_case "statx quantile" `Quick test_statx_quantile;
    Alcotest.test_case "statx entropy" `Quick test_statx_entropy;
    Alcotest.test_case "statx pearson" `Quick test_statx_pearson;
    QCheck_alcotest.to_alcotest test_statx_geomean_mean;
    Alcotest.test_case "dyn push/get" `Quick test_dyn_push_get;
    QCheck_alcotest.to_alcotest test_dyn_roundtrip;
    Alcotest.test_case "csv escaping" `Quick test_csv_escaping;
    Alcotest.test_case "csv write/read" `Quick test_csv_write_read;
  ]
