(* dpp_serve: the placement service daemon and its line client.

     dpp_serve daemon --socket /tmp/dpp.sock --workers 4 --spool /tmp/dpp.spool
     dpp_serve submit --socket /tmp/dpp.sock --preset dp_mix_l --check --out placed
     dpp_serve eco    --socket /tmp/dpp.sock --preset dp_mix_l --random-edits 4 --edit-seed 7
     dpp_serve ping   --socket /tmp/dpp.sock
     dpp_serve stop   --socket /tmp/dpp.sock                                      *)

open Cmdliner
module P = Dpp_serve.Protocol
module Server = Dpp_serve.Server
module Eco = Dpp_core.Eco
module Json = Dpp_report.Json
module Trace = Dpp_report.Trace

let setup_logs verbose =
  Logs.set_reporter (Logs.format_reporter ());
  Logs.set_level (Some (if verbose then Logs.Info else Logs.Warning))

(* ----- daemon ----- *)

let daemon verbose socket workers queue spool =
  setup_logs verbose;
  let cfg = { Server.workers; queue; spool } in
  let t = Server.create ~cfg () in
  let resumed = Server.resume t in
  if resumed <> [] then
    Printf.printf "resumed %d spooled job(s): %s\n%!" (List.length resumed)
      (String.concat ", " (List.map string_of_int resumed));
  let stop _ = Server.interrupt t in
  Sys.set_signal Sys.sigterm (Sys.Signal_handle stop);
  Sys.set_signal Sys.sigint (Sys.Signal_handle stop);
  Server.listen_unix t ~path:socket;
  (* listener is down; let in-flight jobs finish (or hit their abort
     boundary and spool themselves), then join the worker domains *)
  Server.drain t;
  Server.shutdown t;
  Printf.printf "served %d job(s), %d failed\n%!" (Server.jobs_completed t) (Server.jobs_failed t);
  0

(* ----- client plumbing ----- *)

let connect socket =
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.connect fd (Unix.ADDR_UNIX socket);
  fd

let stream_until_done fd =
  let rec loop code =
    match P.recv_response fd with
    | None ->
      Printf.eprintf "server closed the connection\n";
      if code = 0 then 1 else code
    | Some (P.Accepted { job }) ->
      Printf.printf "job %d accepted\n%!" job;
      loop code
    | Some (P.Rejected { reason }) ->
      Printf.eprintf "rejected: %s\n" reason;
      1
    | Some (P.Event { job; stage }) ->
      Printf.printf "job %d: %-8s %8.3fs  hpwl %.0f -> %.0f\n%!" job stage.Trace.name
        stage.Trace.wall_s stage.Trace.hpwl_before stage.Trace.hpwl_after;
      loop code
    | Some (P.Done { job; hpwl; wall_s; eco }) ->
      (match eco with
      | Some e ->
        Printf.printf "job %d done in %.3fs: hpwl %.0f (eco %s, dirty %.3f)\n%!" job wall_s hpwl
          (if e.P.fallback then "fallback" else "incremental")
          e.P.dirty_fraction
      | None -> Printf.printf "job %d done in %.3fs: hpwl %.0f\n%!" job wall_s hpwl);
      0
    | Some P.Pong -> loop code
    | Some (P.Failed { job; reason }) ->
      Printf.eprintf "job %d failed: %s\n" job reason;
      1
  in
  loop 0

let src_of ~preset ~bookshelf ~seed =
  match preset, bookshelf with
  | Some name, None -> Ok (P.Preset { name; seed })
  | None, Some basename -> Ok (P.Bookshelf { basename })
  | Some _, Some _ -> Error "give either --preset or --bookshelf, not both"
  | None, None -> Error "give --preset <name> or --bookshelf <basename>"

let spec_of ~src ~mode ~check ~jobs ~fast ~out =
  let mode =
    match mode with
    | "baseline" -> Dpp_core.Config.Baseline
    | "sa" | "structure-aware" -> Dpp_core.Config.Structure_aware
    | m -> failwith (Printf.sprintf "unknown mode %S" m)
  in
  let s = P.spec ~mode ~check ~jobs ?out src in
  if fast then { s with P.gp_rounds = Some 6; gp_inner_iters = Some 15; detail_passes = Some 1 }
  else s

let with_conn socket f =
  match connect socket with
  | exception Unix.Unix_error (e, _, _) ->
    Printf.eprintf "cannot connect to %s: %s\n" socket (Unix.error_message e);
    1
  | fd -> Fun.protect ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ()) (fun () -> f fd)

let submit verbose socket preset bookshelf seed mode check jobs fast out =
  setup_logs verbose;
  match src_of ~preset ~bookshelf ~seed with
  | Error e ->
    Printf.eprintf "%s\n" e;
    1
  | Ok src ->
    with_conn socket (fun fd ->
        P.send_request fd (P.Submit (spec_of ~src ~mode ~check ~jobs ~fast ~out));
        stream_until_done fd)

let eco verbose socket preset bookshelf seed mode check jobs fast out edits_file random_edits
    edit_seed threshold verify =
  setup_logs verbose;
  match src_of ~preset ~bookshelf ~seed with
  | Error e ->
    Printf.eprintf "%s\n" e;
    1
  | Ok src -> (
    let base = spec_of ~src ~mode ~check ~jobs ~fast ~out in
    match
      match edits_file with
      | Some path ->
        P.Edits (Eco.edits_of_json (Json.parse (In_channel.with_open_bin path In_channel.input_all)))
      | None ->
        (* generated server-side against the placed base, where locality
           is meaningful *)
        P.Random_edits { ops = random_edits; seed = edit_seed }
    with
    | exception e ->
      Printf.eprintf "cannot build edit list: %s\n" (Printexc.to_string e);
      1
    | edits ->
      with_conn socket (fun fd ->
          P.send_request fd (P.Eco_submit { base; edits; threshold; verify });
          stream_until_done fd))

let ping verbose socket =
  setup_logs verbose;
  with_conn socket (fun fd ->
      P.send_request fd P.Ping;
      match P.recv_response fd with
      | Some P.Pong ->
        Printf.printf "pong\n";
        0
      | _ ->
        Printf.eprintf "no pong\n";
        1)

let stop verbose socket =
  setup_logs verbose;
  with_conn socket (fun fd ->
      P.send_request fd P.Shutdown;
      match P.recv_response fd with
      | Some P.Pong ->
        Printf.printf "server stopping\n";
        0
      | _ ->
        Printf.eprintf "no acknowledgement\n";
        1)

(* ----- terms ----- *)

let verbose = Arg.(value & flag & info [ "v"; "verbose" ] ~doc:"Verbose logging.")

let socket =
  Arg.(
    value
    & opt string "/tmp/dpp_serve.sock"
    & info [ "socket" ] ~docv:"PATH" ~doc:"Unix-domain socket path.")

let preset =
  Arg.(value & opt (some string) None & info [ "preset" ] ~docv:"NAME" ~doc:"Built-in benchmark name.")

let bookshelf =
  Arg.(
    value
    & opt (some string) None
    & info [ "bookshelf" ] ~docv:"BASE" ~doc:"Bookshelf basename on the server's filesystem.")

let seed = Arg.(value & opt int 1 & info [ "seed" ] ~doc:"Generator/flow seed.")
let mode = Arg.(value & opt string "baseline" & info [ "mode" ] ~docv:"MODE" ~doc:"baseline or sa.")
let check = Arg.(value & flag & info [ "check" ] ~doc:"Run the stage-boundary invariant oracles.")
let jobs = Arg.(value & opt int 1 & info [ "jobs" ] ~docv:"N" ~doc:"Worker domains per job, at most 16 (larger values run at 16).")

let fast =
  Arg.(
    value & flag
    & info [ "fast" ] ~doc:"Short flow (few GP rounds) — smoke tests and latency probes.")

let out =
  Arg.(
    value
    & opt (some string) None
    & info [ "out" ] ~docv:"BASE" ~doc:"Server-side Bookshelf output basename.")

let daemon_cmd =
  let workers = Arg.(value & opt int 2 & info [ "workers" ] ~docv:"N" ~doc:"Concurrent jobs.") in
  let queue = Arg.(value & opt int 16 & info [ "queue" ] ~docv:"N" ~doc:"Job queue bound.") in
  let spool =
    Arg.(
      value
      & opt (some string) None
      & info [ "spool" ] ~docv:"DIR" ~doc:"Checkpoint directory for crash recovery.")
  in
  Cmd.v
    (Cmd.info "daemon" ~doc:"Run the placement service")
    Term.(const daemon $ verbose $ socket $ workers $ queue $ spool)

let submit_cmd =
  Cmd.v
    (Cmd.info "submit" ~doc:"Submit a full placement job and stream its trace")
    Term.(
      const submit $ verbose $ socket $ preset $ bookshelf $ seed $ mode $ check $ jobs $ fast $ out)

let eco_cmd =
  let edits_file =
    Arg.(
      value
      & opt (some string) None
      & info [ "edits" ] ~docv:"FILE" ~doc:"JSON edit list (see Dpp_core.Eco).")
  in
  let random_edits =
    Arg.(
      value & opt int 4
      & info [ "random-edits" ] ~docv:"N" ~doc:"Generate N seeded edits when no --edits file is given.")
  in
  let edit_seed = Arg.(value & opt int 7 & info [ "edit-seed" ] ~docv:"S" ~doc:"Edit-list seed.") in
  let threshold =
    Arg.(
      value
      & opt (some float) None
      & info [ "threshold" ] ~docv:"F" ~doc:"Dirty-fraction fallback threshold override.")
  in
  let verify =
    Arg.(
      value & flag
      & info [ "verify" ]
          ~doc:
            "Fail the job unless every clean cell of the incremental result is bit-identical to \
             the base placement.")
  in
  Cmd.v
    (Cmd.info "eco" ~doc:"Submit an incremental ECO job against a base placement")
    Term.(
      const eco $ verbose $ socket $ preset $ bookshelf $ seed $ mode $ check $ jobs $ fast $ out
      $ edits_file $ random_edits $ edit_seed $ threshold $ verify)

let ping_cmd = Cmd.v (Cmd.info "ping" ~doc:"Liveness probe") Term.(const ping $ verbose $ socket)

let stop_cmd =
  Cmd.v (Cmd.info "stop" ~doc:"Ask the daemon to drain and exit") Term.(const stop $ verbose $ socket)

let cmd =
  Cmd.group
    (Cmd.info "dpp_serve" ~doc:"Placement as a service: job daemon and client")
    [ daemon_cmd; submit_cmd; eco_cmd; ping_cmd; stop_cmd ]

let () = exit (Cmd.eval' cmd)
