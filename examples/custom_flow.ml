(* Driving the placement engines directly.

   The Flow module is one policy over the engine pieces; this example
   composes its own: soft alignment only (no rigid macros, no snapping),
   a tighter overflow target, and a final Bookshelf dump — the kind of
   experiment the library API is meant to make easy.

     dune exec examples/custom_flow.exe                                    *)

module Design = Dpp_netlist.Design
module Pins = Dpp_wirelen.Pins
module Hpwl = Dpp_wirelen.Hpwl

let () =
  Logs.set_reporter (Logs.format_reporter ());
  Logs.set_level (Some Logs.Warning);
  let spec =
    {
      Dpp_gen.Compose.sp_name = "custom";
      sp_seed = 13;
      sp_blocks = [ Dpp_gen.Compose.Regbank 32; Regbank 32; Adder 32; Regbank 32 ];
      sp_random_cells = 400;
      sp_utilization = 0.7;
    }
  in
  let d = Dpp_gen.Compose.build spec in
  (* the netlist views every engine below reads, derived once *)
  let pins = Pins.build d in
  let soa = pins.Pins.soa in
  (* 1. extraction, with a stricter minimum group height than the default *)
  let groups =
    (Dpp_extract.Slicer.run_with ~soa
       { Dpp_extract.Slicer.default_config with Dpp_extract.Slicer.min_slices = 8 })
      .Dpp_extract.Slicer.groups
  in
  Format.printf "extracted %d groups@." (List.length groups);
  (* 2. initial placement *)
  let qp = Dpp_place.Qp.run_with ~seed:3 ~soa d in
  Format.printf "quadratic init: HPWL %.0f (PCG %d+%d iters)@."
    (Hpwl.total pins ~cx:qp.Dpp_place.Qp.cx ~cy:qp.Dpp_place.Qp.cy)
    qp.Dpp_place.Qp.iterations_x qp.Dpp_place.Qp.iterations_y;
  (* 3. global placement: soft alignment, tight spread *)
  let dgroups =
    Dpp_structure.Dgroup.build_all_ordered d groups ~cx:qp.Dpp_place.Qp.cx
      ~cy:qp.Dpp_place.Qp.cy
  in
  let gp_cfg =
    {
      Dpp_place.Gp.default_config with
      Dpp_place.Gp.overflow_target = 0.08;
      beta = 2.0;
      groups = dgroups;
    }
  in
  let gp = Dpp_place.Gp.run ~pins d gp_cfg ~cx:qp.Dpp_place.Qp.cx ~cy:qp.Dpp_place.Qp.cy in
  List.iter
    (fun (ri : Dpp_place.Gp.round_info) ->
      Format.printf "  round %2d: hpwl %.0f overflow %.3f align %.2f@." ri.Dpp_place.Gp.round
        ri.Dpp_place.Gp.hpwl ri.Dpp_place.Gp.overflow ri.Dpp_place.Gp.align_error)
    gp.Dpp_place.Gp.trace;
  (* 4. legalize + refine *)
  let legal =
    Dpp_place.Legal.run d ~soa ~cx:gp.Dpp_place.Gp.cx ~cy:gp.Dpp_place.Gp.cy ()
  in
  let netbox =
    Dpp_wirelen.Netbox.build pins ~cx:legal.Dpp_place.Legal.cx ~cy:legal.Dpp_place.Legal.cy
  in
  let stats = Dpp_place.Detail.run d ~max_passes:4 ~netbox ~legal () in
  let final = Hpwl.total pins ~cx:legal.Dpp_place.Legal.cx ~cy:legal.Dpp_place.Legal.cy in
  Format.printf "legal+detail: HPWL %.0f (detail recovered %.0f in %d moves)@." final
    (stats.Dpp_place.Detail.reorder_gain +. stats.Dpp_place.Detail.swap_gain)
    stats.Dpp_place.Detail.moves;
  (* 5. verify legality and export *)
  let violations =
    Dpp_place.Legality.check d ~cx:legal.Dpp_place.Legal.cx ~cy:legal.Dpp_place.Legal.cy
  in
  Format.printf "legality: %d violations@." (List.length violations);
  Pins.apply_centers d legal.Dpp_place.Legal.cx legal.Dpp_place.Legal.cy;
  let out = Filename.concat (Filename.get_temp_dir_name ()) "dpp_custom_flow" in
  Dpp_netlist.Bookshelf.write d ~basename:out;
  Format.printf "placed design written to %s.*@." out
