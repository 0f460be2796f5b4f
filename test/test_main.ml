(* Test driver: one Alcotest run over every library's suite. *)

let () =
  Logs.set_reporter (Logs.format_reporter ());
  Logs.set_level (Some Logs.Error);
  Alcotest.run "dpp"
    [
      "util", Test_util.suite;
      "geom", Test_geom.suite;
      "netlist", Test_netlist.suite;
      "bookshelf", Test_bookshelf.suite;
      "numeric", Test_numeric.suite;
      "wirelen", Test_wirelen.suite;
      "netbox", Test_netbox.suite;
      "steiner", Test_steiner.suite;
      "density", Test_density.suite;
      "gen", Test_gen.suite;
      "extract", Test_extract.suite;
      "structure", Test_structure.suite;
      "place", Test_place.suite;
      "coarsen", Test_coarsen.suite;
      "flow", Test_flow.suite;
      "eco", Test_eco.suite;
      "serve", Test_serve.suite;
      "check", Test_check.suite;
      "fuzz", Test_fuzz.suite;
      "soa", Test_soa.suite;
      "par", Test_par.suite;
      "report", Test_report.suite;
      "congest", Test_congest.suite;
      "routability", Test_routability.suite;
      "timing", Test_timing.suite;
      "viz", Test_viz.suite;
      "macros", Test_macros.suite;
      "experiment", Test_experiment.suite;
      "properties", Test_properties.suite;
      "corners", Test_corners.suite;
      "golden", Test_golden.suite;
    ]
