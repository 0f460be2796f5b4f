(* dpp_place: place a design (Bookshelf input or built-in preset) with the
   baseline or structure-aware flow.

     dpp_place --preset dp_add32 --mode sa
     dpp_place --bookshelf path/to/design --mode baseline --out placed   *)

open Cmdliner

let setup_logs verbose =
  Logs.set_reporter (Logs.format_reporter ());
  Logs.set_level (Some (if verbose then Logs.Info else Logs.Warning))

let load ~preset ~bookshelf =
  match preset, bookshelf with
  | Some name, None -> (
    match Dpp_gen.Catalog.design name with
    | Some d -> Ok d
    | None ->
      Error
        (Printf.sprintf "unknown preset %S (available: %s)" name
           (String.concat ", " Dpp_gen.Catalog.names)))
  | None, Some base -> (
    try Ok (Dpp_netlist.Bookshelf.read ~basename:base) with
    | Dpp_netlist.Bookshelf.Parse_error msg -> Error msg
    | Sys_error msg -> Error msg)
  | Some _, Some _ -> Error "give either --preset or --bookshelf, not both"
  | None, None -> Error "give --preset <name> or --bookshelf <basename>"

let ( let* ) = Result.bind

let parse_mode = function
  | "baseline" | "base" -> Ok Dpp_core.Config.Baseline
  | "sa" | "structure-aware" -> Ok Dpp_core.Config.Structure_aware
  | other -> Error (Printf.sprintf "--mode %s: unknown mode (expected baseline or sa)" other)

(* a missing output directory is caught before placing, not after the
   whole flow has run *)
let check_parent flag = function
  | None -> Ok ()
  | Some path ->
    let dir = Filename.dirname path in
    if Sys.file_exists dir && Sys.is_directory dir then Ok ()
    else Error (Printf.sprintf "%s %s: no such directory %s" flag path dir)

(* the write behind an optional output [flag], confirmed on stdout; it can
   still fail after the up-front check (permissions, a full disk) *)
let write flag path ~confirm f =
  match path with
  | None -> Ok ()
  | Some path -> (
    match f path with
    | () -> Ok (print_endline (confirm path))
    | exception Sys_error msg -> Error (Printf.sprintf "%s %s: %s" flag path msg))

let exit_code = function
  | Ok () -> 0
  | Error msg ->
    Printf.eprintf "error: %s\n" msg;
    1

let run verbose preset bookshelf mode beta density seed jobs multilevel flat routability out
    svg compare trace check =
  setup_logs verbose;
  let setup =
    let* () =
      if multilevel && flat then Error "give either --multilevel or --flat, not both" else Ok ()
    in
    let* mode = parse_mode mode in
    let* () = check_parent "--out" out in
    let* () = check_parent "--trace" trace in
    let* () = check_parent "--svg" svg in
    let* design = load ~preset ~bookshelf in
    Ok (mode, design)
  in
  match setup with
  | Error msg -> exit_code (Error msg)
  | Ok (mode, design) -> (
    let ml_mode =
      if multilevel then Dpp_core.Config.Ml_on
      else if flat then Dpp_core.Config.Ml_off
      else Dpp_core.Config.Ml_auto
    in
    let cfg =
      {
        Dpp_core.Config.structure_aware with
        Dpp_core.Config.mode;
        beta;
        target_density = density;
        seed;
        jobs;
        multilevel = ml_mode;
        routability;
      }
    in
    let report tag (r : Dpp_core.Flow.result) =
      Printf.printf "%s: HPWL %.0f  Steiner %.0f  overflow %.3f  groups %d  time %.2fs\n" tag
        r.Dpp_core.Flow.hpwl_final r.Dpp_core.Flow.steiner_final r.Dpp_core.Flow.overflow_gp
        (List.length r.Dpp_core.Flow.groups_used)
        r.Dpp_core.Flow.total_time;
      let c = r.Dpp_core.Flow.congestion in
      Printf.printf "  congestion: max %.3f  ACE(5%%) %.3f  overflowed bins %.1f%%%s\n"
        c.Dpp_congest.Rudy.max_ratio c.Dpp_congest.Rudy.ace_ratio
        (100.0 *. c.Dpp_congest.Rudy.overflowed_bins)
        (match r.Dpp_core.Flow.rt_trace with
        | [] -> ""
        | rt -> Printf.sprintf "  (rt steering: %d updates)" (List.length rt - 1));
      List.iter
        (fun (st : Dpp_report.Trace.stage) ->
          let gc key =
            match List.assoc_opt key st.Dpp_report.Trace.extra with
            | Some (Dpp_report.Json.Num v) -> v
            | _ -> 0.0
          in
          let failed =
            match List.assoc_opt "legal_failed" st.Dpp_report.Trace.extra with
            | Some (Dpp_report.Json.Num v) -> Printf.sprintf "  failed %.0f cells" v
            | _ -> ""
          in
          Printf.printf
            "  %-8s %6.2fs  gc: minor %8.1f Mw  major %7.1f Mw  majors %3.0f  mem: hwm %8.1f MB  heap %8.1f MB%s\n"
            st.Dpp_report.Trace.name st.Dpp_report.Trace.wall_s (gc "gc_minor_mwords")
            (gc "gc_major_mwords") (gc "gc_majors")
            (float_of_int st.Dpp_report.Trace.vm_hwm_kb /. 1024.0)
            (float_of_int st.Dpp_report.Trace.heap_kb /. 1024.0) failed)
        r.Dpp_core.Flow.stage_trace
    in
    let write_trace results =
      write "--trace" trace ~confirm:(Printf.sprintf "stage trace written to %s") (fun path ->
          Dpp_report.Trace.write ~path (List.map Dpp_core.Flow.trace_of_result results))
    in
    try
      if compare then begin
        let base, sa = Dpp_core.Flow.run_both ~check design cfg in
        report "baseline" base;
        report "structure-aware" sa;
        Printf.printf "HPWL ratio (sa/base): %.4f\n"
          (sa.Dpp_core.Flow.hpwl_final /. base.Dpp_core.Flow.hpwl_final);
        exit_code (write_trace [ base; sa ])
      end
      else begin
        let r = Dpp_core.Flow.run ~check design cfg in
        report (Dpp_core.Config.mode_to_string mode) r;
        exit_code
          (let* () = write_trace [ r ] in
           let* () =
             write "--out" out ~confirm:(Printf.sprintf "placement written to %s.*")
               (fun basename -> Dpp_netlist.Bookshelf.write r.Dpp_core.Flow.design ~basename)
           in
           write "--svg" svg ~confirm:(Printf.sprintf "plot written to %s") (fun path ->
               let placed =
                 Dpp_netlist.Design.with_groups r.Dpp_core.Flow.design r.Dpp_core.Flow.groups_used
               in
               Dpp_viz.Plot.placement ~title:(Dpp_core.Config.mode_to_string mode) placed ~path))
      end
    with
    | Dpp_core.Flow.Invalid_design issues ->
      Printf.eprintf "design has %d validation errors; first: %s\n" (List.length issues)
        (match issues with
        | i :: _ -> Format.asprintf "%a" Dpp_netlist.Validate.pp_issue i
        | [] -> "?");
      1
    | Dpp_core.Flow.Check_failed { stage; violations } ->
      Printf.eprintf "invariant check failed after stage %s (%d violations):\n" stage
        (List.length violations);
      List.iter (fun v -> Printf.eprintf "  %s\n" v) violations;
      2)

let cmd =
  let verbose = Arg.(value & flag & info [ "v"; "verbose" ] ~doc:"Verbose logging.") in
  let preset =
    Arg.(value & opt (some string) None & info [ "preset" ] ~docv:"NAME" ~doc:"Built-in benchmark name.")
  in
  let bookshelf =
    Arg.(value & opt (some string) None & info [ "bookshelf" ] ~docv:"BASE" ~doc:"Bookshelf basename (reads BASE.aux).")
  in
  let mode =
    Arg.(value & opt string "sa" & info [ "mode" ] ~docv:"MODE" ~doc:"baseline or sa (structure-aware).")
  in
  let beta = Arg.(value & opt float 1.0 & info [ "beta" ] ~doc:"Soft-alignment weight knob.") in
  let density = Arg.(value & opt float 0.9 & info [ "density" ] ~doc:"Target placement density.") in
  let seed = Arg.(value & opt int 1 & info [ "seed" ] ~doc:"Flow random seed.") in
  let jobs =
    Arg.(value & opt int 1 & info [ "jobs" ] ~docv:"N" ~doc:"Worker domains for the cost kernels, at most 16 (larger values run at 16). The resulting placement is identical at every value.")
  in
  let multilevel =
    Arg.(value & flag & info [ "multilevel" ] ~doc:"Force the multilevel global-placement V-cycle (coarsen, place coarse, interpolate, refine) regardless of design size. By default it engages automatically above the movable-cell threshold.")
  in
  let flat =
    Arg.(value & flag & info [ "flat" ] ~doc:"Force flat (single-level) global placement, disabling the multilevel V-cycle.")
  in
  let routability =
    Arg.(value & flag & info [ "routability" ] ~doc:"Congestion-driven global placement: steer the RUDY congestion map into the density model (cell inflation) and the gradient (per-bin penalty). Deterministic at every --jobs value.")
  in
  let out =
    Arg.(value & opt (some string) None & info [ "out" ] ~docv:"BASE" ~doc:"Write the placed design as Bookshelf BASE.*.")
  in
  let compare = Arg.(value & flag & info [ "compare" ] ~doc:"Run both flows and report the ratio.") in
  let svg =
    Arg.(value & opt (some string) None & info [ "svg" ] ~docv:"FILE" ~doc:"Write an SVG plot of the placement.")
  in
  let trace =
    Arg.(value & opt (some string) None & info [ "trace" ] ~docv:"FILE" ~doc:"Write the per-stage JSON trace (timing, HPWL before/after, overflow) to FILE.")
  in
  let check =
    Arg.(value & flag & info [ "check" ] ~doc:"Validate invariant oracles (legality, group rigidity, incremental-cache consistency) at every stage boundary; the first violation aborts with exit code 2 and names the offending stage.")
  in
  let term =
    Term.(const run $ verbose $ preset $ bookshelf $ mode $ beta $ density $ seed $ jobs $ multilevel $ flat $ routability $ out $ svg $ compare $ trace $ check)
  in
  Cmd.v (Cmd.info "dpp_place" ~doc:"Structure-aware analytical placement") term

let () = exit (Cmd.eval' cmd)
