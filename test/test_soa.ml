(* Tests for the flat SoA netlist core: the of_design/to_design round
   trip, CSR adjacency invariants (pins and the deduplicated cell<->net
   incidence), the x/y/orient aliasing contract, and
   bit-identity of every SoA kernel against the preserved record-path
   implementations in Dpp_refkernels — on each benchmark preset, with the
   pooled kernels checked at 1/2/4 worker domains. *)

module Design = Dpp_netlist.Design
module Types = Dpp_netlist.Types
module Builder = Dpp_netlist.Builder
module Soa = Dpp_netlist.Soa
module Pins = Dpp_wirelen.Pins
module Hpwl = Dpp_wirelen.Hpwl
module Lse = Dpp_wirelen.Lse
module Par_grad = Dpp_wirelen.Par_grad
module Netbox = Dpp_wirelen.Netbox
module Grid = Dpp_density.Grid
module Bell = Dpp_density.Bell
module Rudy = Dpp_congest.Rudy
module Pool = Dpp_par.Pool
module R = Dpp_refkernels.Record_path
module Fuzz = Dpp_core.Fuzz
module I32 = Dpp_util.Compact.I32

let designs_under_test () =
  List.map
    (fun spec -> Dpp_gen.Compose.build spec)
    (List.filter_map Dpp_gen.Presets.by_name [ "dp_add16"; "dp_mix_s"; "rand_ctrl" ])
  @ [ Fuzz.random_design ~seed:5 ~cells:150 ~nets:60; Tutil.random_design 3 ]

(* ----- round trip ----- *)

let test_roundtrip_presets () =
  List.iter
    (fun d ->
      let d' = Soa.to_design (Soa.of_design d) in
      Alcotest.(check bool)
        (d.Design.name ^ ": to_design (of_design d) = d")
        true (d' = d))
    (designs_under_test ())

let prop_roundtrip_random =
  QCheck.Test.make ~name:"soa round trip on random designs" ~count:40 QCheck.small_int
    (fun seed ->
      let d = Fuzz.random_design ~seed ~cells:(60 + (seed mod 90)) ~nets:40 in
      Soa.to_design (Soa.of_design d) = d)

let test_roundtrip_shares_nothing () =
  let d = Tutil.random_design 11 in
  let s = Soa.of_design d in
  let d' = Soa.to_design s in
  (* the round-tripped design owns fresh coordinate arrays *)
  let saved = d'.Design.x.(0) in
  d.Design.x.(0) <- d.Design.x.(0) +. 7.0;
  Alcotest.(check (float 0.0)) "to_design copies coordinates" saved d'.Design.x.(0);
  d.Design.x.(0) <- d.Design.x.(0) -. 7.0

let test_aliasing_contract () =
  let d = Tutil.random_design 12 in
  let s = Soa.of_design d in
  d.Design.x.(1) <- 123.5;
  Alcotest.(check (float 0.0)) "soa.x aliases design.x" 123.5 s.Soa.x.(1);
  s.Soa.y.(2) <- 77.25;
  Alcotest.(check (float 0.0)) "writes through soa.y are visible" 77.25 d.Design.y.(2)

(* ----- CSR invariants ----- *)

let test_csr_consistency () =
  List.iter
    (fun d ->
      let s = Soa.of_design d in
      let name = d.Design.name in
      Alcotest.(check int) (name ^ ": cell csr total") s.Soa.num_pins
        (I32.get s.Soa.cell_pin_off s.Soa.num_cells);
      for c = 0 to s.Soa.num_cells - 1 do
        for k = I32.get s.Soa.cell_pin_off c to I32.get s.Soa.cell_pin_off (c + 1) - 1 do
          if I32.get s.Soa.pin_cell (I32.get s.Soa.cell_pin k) <> c then
            Alcotest.failf "%s: pin %d listed under cell %d but owned by %d" name
              (I32.get s.Soa.cell_pin k) c
              (I32.get s.Soa.pin_cell (I32.get s.Soa.cell_pin k))
        done
      done;
      for n = 0 to s.Soa.num_nets - 1 do
        let pins = (Design.net d n).Types.n_pins in
        let lo = I32.get s.Soa.net_pin_off n in
        Alcotest.(check int) (name ^ ": net degree") (Array.length pins)
          (Soa.net_degree s n);
        Array.iteri
          (fun i p ->
            if I32.get s.Soa.net_pin (lo + i) <> p then
              Alcotest.failf "%s: net %d pin order not preserved at slot %d" name n i;
            if I32.get s.Soa.pin_net p <> n then
              Alcotest.failf "%s: pin_net inverse broken for pin %d" name p)
          pins
      done)
    (designs_under_test ())

(* ----- deduplicated cell<->net incidence ----- *)

let cells_of_net s n =
  let acc = ref [] in
  Soa.iter_cells_of_net s n (fun c -> acc := c :: !acc);
  List.rev !acc

let nets_of_cell s i =
  let acc = ref [] in
  Soa.iter_nets_of_cell s i (fun n -> acc := n :: !acc);
  List.rev !acc

let small_builder () =
  let die = Dpp_geom.Rect.make ~xl:0.0 ~yl:0.0 ~xh:100.0 ~yh:50.0 in
  Builder.create ~name:"t" ~die ~row_height:10.0 ~site_width:1.0 ()

let test_cell_net_adjacency () =
  (* three inverters in a chain, the last driving a pad: n0 = c0->c1,
     n1 = c1->c2, n2 = c2->pad *)
  let b = small_builder () in
  let inv name =
    let id = Builder.add_cell b ~name ~master:"INV" ~w:2.0 ~h:10.0 ~kind:Types.Movable in
    let i = Builder.add_pin b ~cell:id ~dir:Types.Input () in
    let o = Builder.add_pin b ~cell:id ~dir:Types.Output () in
    i, o
  in
  let _, o0 = inv "c0" in
  let i1, o1 = inv "c1" in
  let i2, o2 = inv "c2" in
  let pad = Builder.add_cell b ~name:"pad0" ~master:"PAD" ~w:1.0 ~h:1.0 ~kind:Types.Pad in
  let pad_pin = Builder.add_pin b ~cell:pad ~dir:Types.Input () in
  ignore (Builder.add_net b [ o0; i1 ]);
  ignore (Builder.add_net b [ o1; i2 ]);
  ignore (Builder.add_net b [ o2; pad_pin ]);
  let s = Soa.of_design (Builder.finish b) in
  Alcotest.(check (list int)) "nets of c1" [ 0; 1 ] (nets_of_cell s 1);
  Alcotest.(check (list int)) "cells of n1" [ 1; 2 ] (cells_of_net s 1);
  Alcotest.(check (list int)) "nets of the pad" [ 2 ] (nets_of_cell s 3);
  Alcotest.(check int) "net cell count" 2 (Soa.net_cell_count s 0)

let test_cell_net_dedup () =
  (* two pins of the same cell on one net must not duplicate adjacency *)
  let b = small_builder () in
  let c0 = Builder.add_cell b ~name:"a" ~master:"X" ~w:2.0 ~h:10.0 ~kind:Types.Movable in
  let c1 = Builder.add_cell b ~name:"b" ~master:"X" ~w:2.0 ~h:10.0 ~kind:Types.Movable in
  let p1 = Builder.add_pin b ~cell:c1 ~dir:Types.Output () in
  let p2 = Builder.add_pin b ~cell:c0 ~dir:Types.Input () in
  let p3 = Builder.add_pin b ~cell:c1 ~dir:Types.Input () in
  ignore (Builder.add_net b [ p1; p2; p3 ]);
  let s = Soa.of_design (Builder.finish b) in
  Alcotest.(check int) "pin degree" 3 (Soa.net_degree s 0);
  Alcotest.(check int) "deduplicated degree" 2 (Soa.net_cell_count s 0);
  Alcotest.(check (list int)) "cells ascending, once each" [ 0; 1 ] (cells_of_net s 0);
  Alcotest.(check (list int)) "net listed once" [ 0 ] (nets_of_cell s 1)

(* The CSR against a from-records derivation: each net's pin cells,
   sorted and deduplicated; and each cell's nets are exactly the nets
   listing it, ascending. *)
let prop_cell_net_matches_records =
  QCheck.Test.make ~name:"cell-net csr matches the records" ~count:40 QCheck.small_int
    (fun seed ->
      let d = Fuzz.random_design ~seed ~cells:(60 + (seed mod 90)) ~nets:40 in
      let s = Soa.of_design d in
      let expected =
        Array.map
          (fun (net : Types.net) ->
            List.sort_uniq compare
              (Array.to_list (Array.map (fun p -> (Design.pin d p).Types.p_cell) net.Types.n_pins)))
          d.Design.nets
      in
      let nets = List.init (Design.num_nets d) Fun.id in
      List.for_all
        (fun n ->
          cells_of_net s n = expected.(n)
          && Soa.net_cell_count s n = List.length expected.(n))
        nets
      && List.for_all
           (fun i -> nets_of_cell s i = List.filter (fun n -> List.mem i expected.(n)) nets)
           (List.init (Design.num_cells d) Fun.id))

(* ----- kernel equivalence vs the record path ----- *)

let grad_equal ~what n soa_f ref_f =
  let gx = Array.make n 0.0 and gy = Array.make n 0.0 in
  let gx' = Array.make n 0.0 and gy' = Array.make n 0.0 in
  let v = soa_f ~gx ~gy and v' = ref_f ~gx:gx' ~gy:gy' in
  if not (Float.equal v v') then
    Alcotest.failf "%s: value %.17g vs record %.17g" what v v';
  if not (Array.for_all2 Float.equal gx gx' && Array.for_all2 Float.equal gy gy') then
    Alcotest.failf "%s: gradient differs from the record path" what

let test_kernels_match_record_path () =
  List.iter
    (fun d ->
      let name = d.Design.name in
      let pins = Pins.build d in
      let rp = R.Rpins.build d in
      let cx, cy = Pins.centers_of_design d in
      let n = Design.num_cells d in
      let gamma = max 1.0 (0.02 *. Dpp_geom.Rect.width d.Design.die) in
      if not (Float.equal (Hpwl.total pins ~cx ~cy) (R.hpwl_total rp ~cx ~cy)) then
        Alcotest.failf "%s: hpwl differs from the record path" name;
      grad_equal ~what:(name ^ " lse") n
        (fun ~gx ~gy -> Lse.value_grad pins ~gamma ~cx ~cy ~gx ~gy)
        (fun ~gx ~gy -> R.lse_value_grad rp ~gamma ~cx ~cy ~gx ~gy);
      let nx, ny = Grid.default_dims d in
      let grid = Grid.build d ~nx ~ny in
      let bell = Bell.of_soa pins.Pins.soa ~grid ~target_density:0.9 in
      let rbell = R.Rbell.create d ~grid ~target_density:0.9 in
      grad_equal ~what:(name ^ " bell") n
        (fun ~gx ~gy -> Bell.value_grad bell ~cx ~cy ~gx ~gy)
        (fun ~gx ~gy -> R.Rbell.value_grad rbell ~cx ~cy ~gx ~gy);
      let rd = Rudy.compute ~pins ~nx ~ny d ~cx ~cy in
      let rr = R.rudy rp ~nx ~ny ~cx ~cy in
      if not (Array.for_all2 Float.equal rd.Rudy.demand rr) then
        Alcotest.failf "%s: rudy demand map differs from the record path" name;
      let nb = Netbox.build pins ~cx ~cy in
      for net = 0 to Design.num_nets d - 1 do
        if Array.length (Design.net d net).Types.n_pins >= 2 then begin
          let a0, a1, a2, a3 = Netbox.net_box nb net in
          let b0, b1, b2, b3 = R.net_box rp ~cx ~cy net in
          if
            not
              (Float.equal a0 b0 && Float.equal a1 b1 && Float.equal a2 b2
             && Float.equal a3 b3)
          then Alcotest.failf "%s: net %d box differs from the record rescan" name net
        end
      done)
    (designs_under_test ())

(* pooled kernels at 1/2/4 worker domains: the gradient and netbox paths
   must equal the serial (= record-identical) results exactly; the
   chunk-merged bell/RUDY paths must not depend on the worker count *)
let test_kernels_jobs_1_2_4 () =
  List.iter
    (fun d ->
      let name = d.Design.name in
      let pins = Pins.build d in
      let rp = R.Rpins.build d in
      let cx, cy = Pins.centers_of_design d in
      let n = Design.num_cells d in
      let gamma = max 1.0 (0.02 *. Dpp_geom.Rect.width d.Design.die) in
      let nx, ny = Grid.default_dims d in
      let grid = Grid.build d ~nx ~ny in
      let bell = Bell.of_soa pins.Pins.soa ~grid ~target_density:0.9 in
      let at_jobs jobs =
        Pool.with_pool ~nworkers:jobs @@ fun pool ->
        let pg = Par_grad.create pool pins in
        let gx = Array.make n 0.0 and gy = Array.make n 0.0 in
        let v = Par_grad.value_grad pg pool ~gamma ~cx ~cy ~gx ~gy in
        let bp = Bell.par_create bell in
        let bx = Array.make n 0.0 and by = Array.make n 0.0 in
        let bv = Bell.par_value_grad bp pool ~cx ~cy ~gx:bx ~gy:by in
        let rd = Rudy.compute ~pool ~pins ~nx ~ny d ~cx ~cy in
        let nb = Netbox.build ~pool pins ~cx ~cy in
        v, gx, gy, bv, bx, by, rd.Rudy.demand, Netbox.total nb
      in
      (* anchor: the pooled gradient must equal the record path too *)
      let gx' = Array.make n 0.0 and gy' = Array.make n 0.0 in
      let vr = R.lse_value_grad rp ~gamma ~cx ~cy ~gx:gx' ~gy:gy' in
      let v1, px1, py1, b1, bx1, by1, rd1, nt1 = at_jobs 1 in
      if not (Float.equal v1 vr && Array.for_all2 Float.equal px1 gx') then
        Alcotest.failf "%s: pooled lse at 1 worker differs from the record path" name;
      ignore py1;
      List.iter
        (fun jobs ->
          let v, px, py, bv, bx, by, rd, nt = at_jobs jobs in
          let ok =
            Float.equal v1 v
            && Array.for_all2 Float.equal px1 px
            && Array.for_all2 Float.equal py1 py
            && Float.equal b1 bv
            && Array.for_all2 Float.equal bx1 bx
            && Array.for_all2 Float.equal by1 by
            && Array.for_all2 Float.equal rd1 rd
            && Float.equal nt1 nt
          in
          if not ok then
            Alcotest.failf "%s: pooled kernels at %d workers differ from 1" name jobs)
        [ 2; 4 ])
    (designs_under_test ())

(* ----- XL generator and PEKO ----- *)

let test_xl_deterministic_and_valid () =
  let d1 = Option.get (Dpp_gen.Xl.by_name ~seed:1 "xl10k") in
  let d2 = Option.get (Dpp_gen.Xl.by_name ~seed:1 "xl10k") in
  Alcotest.(check bool) "xl generator deterministic" true (d1 = d2);
  let issues = Dpp_netlist.Validate.check d1 in
  Alcotest.(check bool)
    (String.concat "; "
       (List.map
          (fun (i : Dpp_netlist.Validate.issue) -> i.Dpp_netlist.Validate.message)
          (Dpp_netlist.Validate.errors issues)))
    true
    (Dpp_netlist.Validate.errors issues = []);
  (* target size honored within the tile/pad rounding *)
  let cells = Design.num_cells d1 in
  Alcotest.(check bool)
    (Printf.sprintf "xl10k size %d within 5%% of 10000" cells)
    true
    (abs (cells - 10_000) < 500);
  (* the flat core digests it unchanged *)
  Alcotest.(check bool) "xl round trip" true (Soa.to_design (Soa.of_design d1) = d1)

let test_peko_optimum_attained () =
  let d, opt = Dpp_gen.Peko.build ~name:"peko" ~cells:2_000 () in
  let issues = Dpp_netlist.Validate.check d in
  Alcotest.(check bool) "peko validates" true (Dpp_netlist.Validate.errors issues = []);
  let pins = Pins.build d in
  let cx, cy = Pins.centers_of_design d in
  (* the shipped placement attains the analytic optimum exactly: every
     net spans (degree - 1) consecutive unit sites in one row *)
  Alcotest.(check (float 0.0)) "shipped placement HPWL = optimal HPWL" opt
    (Hpwl.total pins ~cx ~cy);
  (* and no placement can beat it, per net: spot-check the bound shape *)
  Array.iter
    (fun (n : Types.net) ->
      let k = Array.length n.Types.n_pins in
      Alcotest.(check bool) "net degree from the cycle" true (k >= 2 && k <= 8))
    d.Design.nets

(* The int32 CSR overflow gate: a pin total past the int32 range must
   fail fast at derivation time with the counted number in the message,
   and the largest representable total must pass silently. *)
let test_int32_overflow_guard () =
  let over = I32.max_value + 1 in
  (match Soa.guard_pin_count ~name:"synthetic_xl" over with
  | () -> Alcotest.fail "guard_pin_count accepted a pin total past the int32 range"
  | exception Failure msg ->
    let contains needle =
      let nl = String.length needle and hl = String.length msg in
      let rec go i = i + nl <= hl && (String.sub msg i nl = needle || go (i + 1)) in
      go 0
    in
    Alcotest.(check bool) "message names the design" true (contains "synthetic_xl");
    Alcotest.(check bool) "message carries the counted pin total" true
      (contains (string_of_int over)));
  (* the boundary itself is representable: no failure at exactly max *)
  Soa.guard_pin_count ~name:"at_the_edge" I32.max_value

let suite =
  [
    Alcotest.test_case "round trip on presets and fuzz designs" `Quick
      test_roundtrip_presets;
    Alcotest.test_case "int32 csr overflow guard" `Quick test_int32_overflow_guard;
    QCheck_alcotest.to_alcotest prop_roundtrip_random;
    Alcotest.test_case "round trip shares no mutable state" `Quick
      test_roundtrip_shares_nothing;
    Alcotest.test_case "x/y aliasing contract" `Quick test_aliasing_contract;
    Alcotest.test_case "csr adjacency consistent" `Quick test_csr_consistency;
    Alcotest.test_case "cell net adjacency" `Quick test_cell_net_adjacency;
    Alcotest.test_case "cell net dedup" `Quick test_cell_net_dedup;
    QCheck_alcotest.to_alcotest prop_cell_net_matches_records;
    Alcotest.test_case "kernels bit-identical to record path" `Quick
      test_kernels_match_record_path;
    Alcotest.test_case "pooled kernels at jobs 1/2/4" `Quick test_kernels_jobs_1_2_4;
    Alcotest.test_case "xl generator deterministic and valid" `Quick
      test_xl_deterministic_and_valid;
    Alcotest.test_case "peko ships at its analytic optimum" `Quick
      test_peko_optimum_attained;
  ]
