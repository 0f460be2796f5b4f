(* Tests for Dpp_coarsen and the multilevel Gp V-cycle: cluster
   integrity at every level, datapath groups never split, deterministic
   builds, interpolation geometry, GP convergence trend, and the
   multilevel-vs-flat quality bound. *)

module Rect = Dpp_geom.Rect
module Design = Dpp_netlist.Design
module Types = Dpp_netlist.Types
module Pins = Dpp_wirelen.Pins
module Soa = Dpp_netlist.Soa
module Dgroup = Dpp_structure.Dgroup
module Coarsen = Dpp_coarsen
module Gp = Dpp_place.Gp
module Qp = Dpp_place.Qp
module Check = Dpp_check

let scaled_design ?(cells = 900) seed =
  Dpp_gen.Compose.build
    (Dpp_gen.Presets.scaled
       ~name:(Printf.sprintf "ml%d" seed)
       ~seed ~cells ~dp_fraction:0.5)

(* idealized datapath groups from the generator's ground truth *)
let dgroups_of d =
  let cx, cy = Pins.centers_of_design d in
  Dgroup.build_all_ordered d d.Design.groups ~cx ~cy

let build_levels ?(seed = 7) d =
  Coarsen.build ~groups:(dgroups_of d) ~min_cells:100 ~max_levels:3 ~seed
    ~soa:(Soa.of_design d) d

let test_levels_pass_integrity_oracle () =
  let d = scaled_design 21 in
  let levels = build_levels d in
  Alcotest.(check bool) "coarsening produced levels" true (levels <> []);
  List.iteri
    (fun k lvl ->
      match Check.cluster_integrity lvl with
      | [] -> ()
      | vs ->
        Alcotest.failf "level %d: %s" (k + 1)
          (String.concat "; " (Check.Violation.strings vs)))
    levels

let test_coarse_soa_describes_coarse () =
  let d = scaled_design 23 in
  let levels = build_levels d in
  Alcotest.(check bool) "coarsening produced levels" true (levels <> []);
  List.iteri
    (fun k lvl ->
      let s = lvl.Coarsen.coarse_soa in
      (* derived from this very design: the coordinates alias, and the
         view round-trips to it field for field *)
      Alcotest.(check bool) (Printf.sprintf "level %d aliases its coarse design" (k + 1)) true
        (s.Soa.x == lvl.Coarsen.coarse.Design.x);
      Alcotest.(check bool) (Printf.sprintf "level %d round-trips to its coarse design" (k + 1))
        true
        (Soa.to_design s = lvl.Coarsen.coarse))
    levels

let test_groups_never_split () =
  let d = scaled_design 22 in
  let groups = dgroups_of d in
  let levels = build_levels d in
  let l1 = List.hd levels in
  Alcotest.(check int) "one cluster per datapath group" (List.length groups)
    (List.length l1.Coarsen.group_of);
  List.iter
    (fun (cid, (dg : Dgroup.t)) ->
      Array.iter
        (fun i ->
          Alcotest.(check int)
            (Printf.sprintf "group member %d stays in cluster" i)
            cid
            l1.Coarsen.cluster_of.(i))
        dg.Dgroup.cells)
    l1.Coarsen.group_of;
  (* the collapsed cluster stays whole at every deeper level too: it is
     protected, so it must remain a singleton all the way down *)
  List.iteri
    (fun k lvl ->
      if k > 0 then
        Array.iteri
          (fun cid p ->
            if p then
              Alcotest.(check int)
                (Printf.sprintf "level %d protected cluster %d singleton" (k + 1) cid)
                1
                (Array.length lvl.Coarsen.members.(lvl.Coarsen.cluster_of.(cid))))
          (List.nth levels (k - 1)).Coarsen.protected)
    levels

let test_build_deterministic () =
  let d = scaled_design 23 in
  let a = build_levels ~seed:11 d and b = build_levels ~seed:11 d in
  Alcotest.(check int) "same depth" (List.length a) (List.length b);
  List.iter2
    (fun (la : Coarsen.level) (lb : Coarsen.level) ->
      Alcotest.(check bool) "identical cluster map" true (la.Coarsen.cluster_of = lb.Coarsen.cluster_of);
      Alcotest.(check int) "identical coarse size" (Design.num_cells la.Coarsen.coarse)
        (Design.num_cells lb.Coarsen.coarse);
      Alcotest.(check int) "identical coarse nets" (Design.num_nets la.Coarsen.coarse)
        (Design.num_nets lb.Coarsen.coarse))
    a b

let test_reduction_without_groups () =
  let d = scaled_design 24 in
  let levels =
    Coarsen.build ~min_cells:100 ~max_levels:3 ~seed:5 ~soa:(Soa.of_design d) d
  in
  Alcotest.(check bool) "levels exist" true (levels <> []);
  List.iter
    (fun (lvl : Coarsen.level) ->
      let fm = Array.length (Design.movable_ids lvl.Coarsen.fine) in
      let cm = Array.length (Design.movable_ids lvl.Coarsen.coarse) in
      Alcotest.(check bool)
        (Printf.sprintf "movables shrink (%d -> %d)" fm cm)
        true (cm < fm);
      Alcotest.(check bool) "nets do not grow" true
        (Design.num_nets lvl.Coarsen.coarse <= Design.num_nets lvl.Coarsen.fine))
    levels;
  (* below the floor no hierarchy is built *)
  Alcotest.(check (list reject)) "tiny design yields no levels" []
    (Coarsen.build ~min_cells:100_000 ~seed:5 ~soa:(Soa.of_design d) d)

let test_interpolate_group_offsets () =
  let d = scaled_design 25 in
  let levels = build_levels d in
  let l1 = List.hd levels in
  let k = Design.num_cells l1.Coarsen.coarse in
  let die = d.Design.die in
  let ccx = Array.make k (Rect.width die /. 3.0) in
  let ccy = Array.make k (Rect.height die /. 3.0) in
  let cx, cy = Pins.centers_of_design d in
  Coarsen.interpolate l1 ~ccx ~ccy ~cx ~cy;
  List.iter
    (fun (_, (dg : Dgroup.t)) ->
      let n = Array.length dg.Dgroup.cells in
      let i0 = dg.Dgroup.cells.(0) in
      for j = 1 to n - 1 do
        let i = dg.Dgroup.cells.(j) in
        Alcotest.(check (float 1e-9)) "bit-order x offset preserved"
          (dg.Dgroup.off_x.(j) -. dg.Dgroup.off_x.(0))
          (cx.(i) -. cx.(i0));
        Alcotest.(check (float 1e-9)) "bit-order y offset preserved"
          (dg.Dgroup.off_y.(j) -. dg.Dgroup.off_y.(0))
          (cy.(i) -. cy.(i0))
      done)
    l1.Coarsen.group_of;
  (* every movable landed inside the die *)
  Array.iter
    (fun i ->
      Alcotest.(check bool) "x inside die" true (cx.(i) >= die.Rect.xl && cx.(i) <= die.Rect.xh);
      Alcotest.(check bool) "y inside die" true (cy.(i) >= die.Rect.yl && cy.(i) <= die.Rect.yh))
    (Design.movable_ids d)

let gp_config = { Gp.default_config with Gp.rounds = 12; inner_iters = 25 }

let test_gp_overflow_trend () =
  let d = scaled_design ~cells:600 26 in
  let qp = Qp.run ~seed:1 d in
  let r = Gp.run ~pins:(Pins.build d) d gp_config ~cx:qp.Qp.cx ~cy:qp.Qp.cy in
  let ovs = List.map (fun (ri : Gp.round_info) -> ri.Gp.overflow) r.Gp.trace in
  (match ovs with
  | first :: _ :: _ ->
    let last = List.nth ovs (List.length ovs - 1) in
    Alcotest.(check bool)
      (Printf.sprintf "overflow decreases overall (%.3f -> %.3f)" first last)
      true (last <= first);
    (* the trend is monotone up to small spreading transients *)
    let worst = ref 0.0 in
    List.iteri
      (fun i ov ->
        if i > 0 then worst := max !worst (ov -. List.nth ovs (i - 1)))
      ovs;
    Alcotest.(check bool)
      (Printf.sprintf "no large overflow regression between rounds (worst +%.3f)" !worst)
      true (!worst < 0.05)
  | _ -> Alcotest.fail "gp trace too short")

let test_multilevel_vs_flat_hpwl () =
  let d = scaled_design ~cells:800 27 in
  let levels =
    Coarsen.build ~groups:(dgroups_of d) ~min_cells:150 ~max_levels:2 ~seed:9
      ~soa:(Soa.of_design d) d
  in
  Alcotest.(check bool) "hierarchy engaged" true (levels <> []);
  let qp = Qp.run ~seed:1 d in
  let pins = Pins.build d in
  let flat = Gp.run ~pins d gp_config ~cx:(Array.copy qp.Qp.cx) ~cy:(Array.copy qp.Qp.cy) in
  let ml =
    Gp.run_multilevel ~pins d gp_config ~levels ~cx:(Array.copy qp.Qp.cx)
      ~cy:(Array.copy qp.Qp.cy)
  in
  let ratio = ml.Gp.result.Gp.final_hpwl /. flat.Gp.final_hpwl in
  Alcotest.(check bool)
    (Printf.sprintf "multilevel HPWL within a bounded factor of flat (ratio %.3f)" ratio)
    true
    (ratio > 0.5 && ratio < 1.5);
  Alcotest.(check int) "one trace entry per level" (List.length levels)
    (List.length ml.Gp.level_trace)

let test_disconnected_falls_back_flat () =
  (* PEKO nets are cell-disjoint: every connected component is one net
     (at most 8 cells), so the V-cycle has nothing to exploit and build
     must return [] — the flat-GP fallback — instead of coarsening dust *)
  let pk, _ = Dpp_gen.Peko.build ~name:"peko_cc" ~cells:4000 () in
  Alcotest.(check int) "flat fallback on disconnected design" 0
    (List.length (Coarsen.build ~min_cells:500 ~seed:3 ~soa:(Soa.of_design pk) pk));
  (* a connected design of the same scale still coarsens *)
  let d = scaled_design ~cells:900 31 in
  Alcotest.(check bool) "connected design still builds levels" true
    (Coarsen.build ~min_cells:150 ~max_levels:2 ~seed:3 ~soa:(Soa.of_design d) d
    <> [])

let suite =
  [
    Alcotest.test_case "disconnected falls back flat" `Quick test_disconnected_falls_back_flat;
    Alcotest.test_case "levels pass integrity oracle" `Quick test_levels_pass_integrity_oracle;
    Alcotest.test_case "coarse soa describes coarse" `Quick test_coarse_soa_describes_coarse;
    Alcotest.test_case "dgroups never split" `Quick test_groups_never_split;
    Alcotest.test_case "build deterministic" `Quick test_build_deterministic;
    Alcotest.test_case "reduction without groups" `Quick test_reduction_without_groups;
    Alcotest.test_case "interpolate group offsets" `Quick test_interpolate_group_offsets;
    Alcotest.test_case "gp overflow trend" `Slow test_gp_overflow_trend;
    Alcotest.test_case "multilevel vs flat hpwl" `Slow test_multilevel_vs_flat_hpwl;
  ]
