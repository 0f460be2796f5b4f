(* Cross-module property tests that need several libraries together. *)

module Rect = Dpp_geom.Rect
module Types = Dpp_netlist.Types
module Design = Dpp_netlist.Design
module Pins = Dpp_wirelen.Pins
module Hpwl = Dpp_wirelen.Hpwl
module Csr = Dpp_numeric.Csr
module Rng = Dpp_util.Rng

let prop_rng_float_in =
  QCheck.Test.make ~name:"rng float_in stays in range" ~count:300
    QCheck.(triple small_int (float_range (-50.0) 50.0) (float_range 0.001 100.0))
    (fun (seed, lo, span) ->
      let r = Rng.create seed in
      let v = Rng.float_in r lo (lo +. span) in
      v >= lo && v < lo +. span)

let prop_csr_transpose_involution =
  let gen =
    QCheck.Gen.(
      let* n = 1 -- 5 in
      let* entries =
        list_size (0 -- 15) (triple (0 -- (n - 1)) (0 -- (n - 1)) (float_range (-4.0) 4.0))
      in
      return (n, entries))
  in
  QCheck.Test.make ~name:"csr transpose involution" ~count:150 (QCheck.make gen)
    (fun (n, entries) ->
      let b = Csr.Triplets.create ~rows:n ~cols:n in
      List.iter (fun (i, j, v) -> Csr.Triplets.add b i j v) entries;
      let a = Csr.Triplets.to_csr b in
      let t2 = Csr.transpose (Csr.transpose a) in
      let ok = ref (Csr.nnz a = Csr.nnz t2) in
      for i = 0 to n - 1 do
        for j = 0 to n - 1 do
          if abs_float (Csr.get a i j -. Csr.get t2 i j) > 1e-9 then ok := false
        done
      done;
      !ok)

let prop_hpwl_nonnegative_and_scaling =
  QCheck.Test.make ~name:"hpwl nonnegative and scale-covariant" ~count:50 QCheck.small_int
    (fun seed ->
      let d = Tutil.random_design ~cells:8 ~nets:6 (seed + 1) in
      let pins = Pins.build d in
      let cx, cy = Pins.centers_of_design d in
      let h = Hpwl.total pins ~cx ~cy in
      let cx2 = Array.map (fun x -> 2.0 *. x) cx in
      let cy2 = Array.map (fun y -> 2.0 *. y) cy in
      (* scaling positions scales the position-dependent part; with pin
         offsets fixed the relation is not exactly 2x, so only check
         monotone growth and nonnegativity *)
      let h2 = Hpwl.total pins ~cx:cx2 ~cy:cy2 in
      h >= 0.0 && h2 >= h -. 1e-6)

let prop_legality_catches_overlap =
  QCheck.Test.make ~name:"legality audit catches injected overlaps" ~count:50 QCheck.small_int
    (fun seed ->
      let d = Tutil.random_design ~cells:10 ~nets:5 (seed + 100) in
      (* legalize trivially: place cells side by side on row 0 *)
      let nc = Design.num_cells d in
      let cx = Array.make nc 0.0 and cy = Array.make nc 0.0 in
      let cursor = ref 0.0 in
      Array.iter
        (fun i ->
          let w = (Design.cell d i).Types.c_width in
          cx.(i) <- !cursor +. (w /. 2.0);
          cy.(i) <- 5.0;
          cursor := !cursor +. w)
        (Design.movable_ids d);
      let clean = Dpp_place.Legality.check d ~cx ~cy = [] in
      (* now inject an overlap: move cell 1 onto cell 0 *)
      let m = Design.movable_ids d in
      cx.(m.(1)) <- cx.(m.(0));
      let caught =
        List.exists
          (function Dpp_place.Legality.Overlap _ -> true | _ -> false)
          (Dpp_place.Legality.check d ~cx ~cy)
      in
      clean && caught)

let prop_bookshelf_roundtrip_random =
  QCheck.Test.make ~name:"bookshelf roundtrip on random designs" ~count:15 QCheck.small_int
    (fun seed ->
      let d = Tutil.random_design ~cells:10 ~nets:8 (seed + 500) in
      let dir = Filename.temp_file "dpp_prop" "" in
      Sys.remove dir;
      Unix.mkdir dir 0o755;
      let base = Filename.concat dir "t" in
      Dpp_netlist.Bookshelf.write d ~basename:base;
      let d' = Dpp_netlist.Bookshelf.read ~basename:base in
      Array.iter (fun f -> Sys.remove (Filename.concat dir f)) (Sys.readdir dir);
      Unix.rmdir dir;
      (* unconnected pins are not representable in Bookshelf, so compare
         connected pins only; HPWL is written with 4 decimals so rounding
         can accumulate slightly *)
      let connected dd =
        Array.fold_left
          (fun acc (p : Types.pin) -> if p.Types.p_net >= 0 then acc + 1 else acc)
          0 dd.Design.pins
      in
      Design.num_cells d = Design.num_cells d'
      && Design.num_nets d = Design.num_nets d'
      && connected d = connected d'
      && abs_float (Hpwl.total_of_design d -. Hpwl.total_of_design d') < 0.05)

let prop_steiner_between_bounds =
  QCheck.Test.make ~name:"rsmt between hpwl and rmst per net" ~count:50 QCheck.small_int
    (fun seed ->
      let d = Tutil.random_design ~cells:10 ~nets:8 (seed + 900) in
      let pins = Pins.build d in
      let cx, cy = Pins.centers_of_design d in
      let ok = ref true in
      for n = 0 to Design.num_nets d - 1 do
        let k = Pins.load_net pins ~cx ~cy n in
        let points = Array.init k (fun i -> pins.Pins.scratch_x.(i), pins.Pins.scratch_y.(i)) in
        let st = Dpp_steiner.Rsmt.length points in
        let mst = Dpp_steiner.Mst.length points in
        let hp = Hpwl.net pins ~cx ~cy n in
        if st > mst +. 1e-6 || st < hp -. 1e-6 then ok := false
      done;
      !ok)

let suite =
  [
    QCheck_alcotest.to_alcotest prop_rng_float_in;
    QCheck_alcotest.to_alcotest prop_csr_transpose_involution;
    QCheck_alcotest.to_alcotest prop_hpwl_nonnegative_and_scaling;
    QCheck_alcotest.to_alcotest prop_legality_catches_overlap;
    QCheck_alcotest.to_alcotest prop_bookshelf_roundtrip_random;
    QCheck_alcotest.to_alcotest prop_steiner_between_bounds;
  ]
