(* dpp_extract_cli: run datapath extraction on a design and report the
   groups (and quality vs ground truth when labels exist).

     dpp_extract_cli --preset dp_alu32
     dpp_extract_cli --bookshelf /tmp/custom --min-slices 8              *)

open Cmdliner

let run preset bookshelf min_slices max_degree verbose =
  Logs.set_reporter (Logs.format_reporter ());
  Logs.set_level (Some (if verbose then Logs.Info else Logs.Warning));
  let design =
    match preset, bookshelf with
    | Some name, None -> (
      match Dpp_gen.Catalog.design name with
      | Some d -> Ok d
      | None -> Error (Printf.sprintf "unknown preset %S" name))
    | None, Some base -> (
      try Ok (Dpp_netlist.Bookshelf.read ~basename:base)
      with Dpp_netlist.Bookshelf.Parse_error m | Sys_error m -> Error m)
    | _ -> Error "give either --preset or --bookshelf"
  in
  match design with
  | Error msg ->
    Printf.eprintf "error: %s\n" msg;
    1
  | Ok d ->
    let cfg =
      {
        Dpp_extract.Slicer.default_config with
        Dpp_extract.Slicer.min_slices;
        max_data_degree = max_degree;
      }
    in
    let t0 = Unix.gettimeofday () in
    let r = Dpp_extract.Slicer.run d cfg in
    let dt = Unix.gettimeofday () -. t0 in
    Printf.printf "extracted %d groups in %.3fs (%d control seeds, %d chain seeds, %d grown)\n"
      (List.length r.Dpp_extract.Slicer.groups)
      dt r.Dpp_extract.Slicer.seeds_control r.Dpp_extract.Slicer.seeds_chain
      r.Dpp_extract.Slicer.columns_grown;
    List.iter
      (fun g ->
        Printf.printf "  %-8s %3d slices x %3d stages (%4d cells)  coupling %.3f  span %.2f\n"
          g.Dpp_netlist.Groups.g_name
          (Dpp_netlist.Groups.num_slices g)
          (Dpp_netlist.Groups.num_stages g)
          (Dpp_netlist.Groups.cell_count g)
          (Dpp_structure.Dgroup.internal_coupling d g)
          (Dpp_structure.Dgroup.slice_span d g))
      r.Dpp_extract.Slicer.groups;
    if d.Dpp_netlist.Design.groups <> [] then begin
      let m =
        Dpp_extract.Exmetrics.compare_to_truth ~truth:d.Dpp_netlist.Design.groups
          ~found:r.Dpp_extract.Slicer.groups
      in
      Printf.printf "vs ground truth: precision %.3f  recall %.3f  F1 %.3f  (%d/%d groups matched)\n"
        m.Dpp_extract.Exmetrics.precision m.Dpp_extract.Exmetrics.recall
        m.Dpp_extract.Exmetrics.f1 m.Dpp_extract.Exmetrics.matched_groups
        m.Dpp_extract.Exmetrics.found_groups
    end;
    0

let cmd =
  let preset = Arg.(value & opt (some string) None & info [ "preset" ] ~docv:"NAME") in
  let bookshelf = Arg.(value & opt (some string) None & info [ "bookshelf" ] ~docv:"BASE") in
  let min_slices = Arg.(value & opt int 4 & info [ "min-slices" ] ~doc:"Minimum group height.") in
  let max_degree =
    Arg.(value & opt int 5 & info [ "max-data-degree" ] ~doc:"Largest net treated as a data net.")
  in
  let verbose = Arg.(value & flag & info [ "v"; "verbose" ]) in
  let term = Term.(const run $ preset $ bookshelf $ min_slices $ max_degree $ verbose) in
  Cmd.v (Cmd.info "dpp_extract" ~doc:"Datapath regularity extraction") term

let () = exit (Cmd.eval' cmd)
