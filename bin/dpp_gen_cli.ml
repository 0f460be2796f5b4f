(* dpp_gen_cli: generate synthetic datapath benchmarks as Bookshelf files.

     dpp_gen_cli --preset dp_add32 --out /tmp/dp_add32
     dpp_gen_cli --preset xl100k --out /tmp/xl100k
     dpp_gen_cli --cells 5000 --dp-fraction 0.6 --seed 3 --out /tmp/custom
     dpp_gen_cli --peko --cells 100000 --out /tmp/peko100k  *)

open Cmdliner

let emit d ~extra out =
  let stats = Dpp_netlist.Nstats.compute d in
  Format.printf "%a@." Dpp_netlist.Nstats.pp stats;
  extra ();
  match out with
  | Some base ->
    Dpp_netlist.Bookshelf.write d ~basename:base;
    Printf.printf "written to %s.{aux,nodes,nets,pl,scl,masters%s}\n" base
      (if d.Dpp_netlist.Design.groups <> [] then ",groups" else "");
    0
  | None ->
    Printf.printf "(no --out given: stats only)\n";
    0

let run preset cells dp_fraction seed peko out list_presets =
  if list_presets then begin
    List.iter print_endline Dpp_gen.Catalog.names;
    0
  end
  else if peko then begin
    let d, opt = Dpp_gen.Peko.build ~name:"peko" ~cells () in
    emit d out ~extra:(fun () ->
        (* the gap denominator: final_hpwl / optimal_hpwl - 1 *)
        Printf.printf "PEKO optimal HPWL : %.1f\n" opt)
  end
  else begin
    let design =
      match preset with
      | Some name -> (
        match Dpp_gen.Catalog.design ?seed name with
        | Some d -> Ok d
        | None -> Error (Printf.sprintf "unknown preset %S" name))
      | None -> (
        let seed = Option.value seed ~default:1 in
        match Dpp_gen.Presets.scaled ~name:"custom" ~seed ~cells ~dp_fraction with
        | spec -> Ok (Dpp_gen.Compose.build spec)
        | exception Invalid_argument msg -> Error msg)
    in
    match design with
    | Error msg ->
      Printf.eprintf "error: %s\n" msg;
      1
    | Ok d -> emit d out ~extra:(fun () -> ())
  end

let cmd =
  let preset =
    Arg.(
      value
      & opt (some string) None
      & info [ "preset" ] ~docv:"NAME"
          ~doc:"Built-in benchmark to generate (dp_* suite, xl10k..xl1m or rt_channel; --list names them).")
  in
  let cells = Arg.(value & opt int 2000 & info [ "cells" ] ~doc:"Target movable cell count (custom design or --peko).") in
  let dp_fraction =
    Arg.(value & opt float 0.5 & info [ "dp-fraction" ] ~doc:"Datapath fraction of movable cells (custom design).")
  in
  let seed =
    Arg.(
      value
      & opt (some int) None
      & info [ "seed" ] ~docv:"N"
          ~doc:"Generator seed. Without it each preset uses its own seed, and a custom design seed 1.")
  in
  let peko =
    Arg.(
      value & flag
      & info [ "peko" ]
          ~doc:
            "Generate a PEKO-style instance with analytically known optimal HPWL \
             (printed, so downstream runs can report an optimality gap).")
  in
  let out = Arg.(value & opt (some string) None & info [ "out" ] ~docv:"BASE" ~doc:"Bookshelf output basename.") in
  let list_presets = Arg.(value & flag & info [ "list" ] ~doc:"List preset names and exit.") in
  let term = Term.(const run $ preset $ cells $ dp_fraction $ seed $ peko $ out $ list_presets) in
  Cmd.v (Cmd.info "dpp_gen" ~doc:"Synthetic datapath benchmark generator") term

let () = exit (Cmd.eval' cmd)
