(* The dpp_serve daemon core: connection handling, job execution,
   checkpoint spooling and resume. *)

module P = Protocol
module Json = Dpp_report.Json
module Trace = Dpp_report.Trace
module Design = Dpp_netlist.Design
module Bookshelf = Dpp_netlist.Bookshelf
module Config = Dpp_core.Config
module Flow = Dpp_core.Flow
module Eco = Dpp_core.Eco
module Snapshot = Dpp_core.Checkpoint.Snapshot

let src = Logs.Src.create "dpp.serve" ~doc:"placement service"

module Log = (val Logs.src_log src : Logs.LOG)

exception Interrupted of string
(* raised inside a job at a stage boundary when the server is stopping;
   the stage name is the last one checkpointed *)

type cfg = { workers : int; queue : int; spool : string option }

let default_cfg = { workers = 2; queue = 16; spool = None }

(* extraction-cache entries, and placed bases kept for ECO deltas *)
let cache_capacity = 16
let base_capacity = 16

type t = {
  cfg : cfg;
  sched : Scheduler.t;
  cache : (int64, Cache.entry) Cache.t;
  bases : (string, Eco.base) Cache.t;  (* spec key -> placed base *)
  abort_all : bool Atomic.t;  (* stop flag: jobs cut at the next boundary *)
  abort_after : string option Atomic.t;  (* fault-injection hook *)
  stop_requested : bool Atomic.t;
  completed : int Atomic.t;
  failed : int Atomic.t;
  mutable listener : Unix.file_descr option;
  listener_lock : Mutex.t;
}

let create ?(cfg = default_cfg) () =
  (match cfg.spool with
  | Some dir -> if not (Sys.file_exists dir) then Unix.mkdir dir 0o755
  | None -> ());
  {
    cfg;
    sched = Scheduler.create ~workers:cfg.workers ~queue:cfg.queue;
    cache = Cache.create ~capacity:cache_capacity;
    bases = Cache.create ~capacity:base_capacity;
    abort_all = Atomic.make false;
    abort_after = Atomic.make None;
    stop_requested = Atomic.make false;
    completed = Atomic.make 0;
    failed = Atomic.make 0;
    listener = None;
    listener_lock = Mutex.create ();
  }

let jobs_completed t = Atomic.get t.completed
let jobs_failed t = Atomic.get t.failed

(* ----- clients ----- *)

type client = { fd : Unix.file_descr; wlock : Mutex.t; mutable alive : bool }

(* A reply must never kill the job producing it: a client that vanished
   mid-stream (EPIPE/ECONNRESET) just stops receiving; the job runs on. *)
let reply (c : client) resp =
  Mutex.lock c.wlock;
  Fun.protect
    ~finally:(fun () -> Mutex.unlock c.wlock)
    (fun () ->
      if c.alive then
        try P.send_response c.fd resp
        with Unix.Unix_error _ | Sys_error _ ->
          c.alive <- false;
          Log.info (fun m -> m "client went away mid-stream"))

let null_reply (_ : P.response) = ()

(* ----- design + config resolution ----- *)

let resolve_design = function
  | P.Preset { name; seed } -> (
    match Dpp_gen.Catalog.design ~seed name with
    | Some d -> d
    | None -> failwith (Printf.sprintf "unknown preset %S" name))
  | P.Bookshelf { basename } -> Bookshelf.read ~basename

let config_of_spec (s : P.job_spec) =
  let seed = match s.src with P.Preset { seed; _ } -> seed | P.Bookshelf _ -> Config.baseline.Config.seed in
  let c = { Config.baseline with Config.mode = s.mode; jobs = max 1 s.jobs; seed } in
  let c = match s.gp_rounds with Some r -> { c with Config.gp_rounds = r } | None -> c in
  let c = match s.gp_inner_iters with Some r -> { c with Config.gp_inner_iters = r } | None -> c in
  let c = match s.detail_passes with Some r -> { c with Config.detail_passes = r } | None -> c in
  c

let spec_key (s : P.job_spec) =
  (* the output path does not change what gets placed *)
  Json.encode (P.spec_to_json { s with P.out = None })

let base_warm t spec = Cache.mem t.bases (spec_key spec)

(* ----- checkpoint spooling ----- *)

let resumable_stages = [ "legal"; "detail"; "flip" ]
let spool_path t id = Option.map (fun dir -> Filename.concat dir (Printf.sprintf "job_%d.json" id)) t.cfg.spool

(* The spool record streams: the spec object is tiny, but a snapshot
   carries the full per-cell placement, so it goes through
   [Snapshot.output] rather than a materialized Json tree.  The bytes
   are identical to the old tree-built record. *)
let write_spool ~path spec snapshot =
  let tmp = path ^ ".tmp" in
  let oc = open_out tmp in
  output_string oc "{\"spec\":";
  output_string oc (Json.encode (P.spec_to_json spec));
  (match snapshot with
  | Some s ->
    output_string oc ",\"snapshot\":";
    Snapshot.output oc s
  | None -> ());
  output_string oc "}";
  close_out oc;
  Sys.rename tmp path

(* Wrap a stage list so every resumable boundary checkpoints to the spool
   file and every boundary honours the abort flags. *)
let instrument t ~spec ~path stages =
  List.map
    (fun (s : Flow.stage) ->
      {
        s with
        Flow.run =
          (fun ctx ->
            let ctx = s.Flow.run ctx in
            (match path with
            | Some p when List.mem s.Flow.name resumable_stages ->
              write_spool ~path:p spec (Some (Snapshot.capture ~stage:s.Flow.name ctx))
            | _ -> ());
            if Atomic.get t.abort_all || Atomic.get t.abort_after = Some s.Flow.name then
              raise (Interrupted s.Flow.name);
            ctx);
      })
    stages

let flow_stages t cfg =
  List.map
    (fun (s : Flow.stage) -> if s.Flow.name = "extract" then Cache.extract_stage t.cache else s)
    (Flow.stages cfg)

(* ----- job execution ----- *)

let finish_ok t ~out design =
  (match out with Some base -> Bookshelf.write design ~basename:base | None -> ());
  Atomic.incr t.completed

let run_submit t ~id ~(spec : P.job_spec) ~reply_fn ?resume_from () =
  let t0 = Unix.gettimeofday () in
  let observer stage = reply_fn (P.Event { job = id; stage }) in
  let path = spool_path t id in
  try
    let design = resolve_design spec.P.src in
    let cfg = config_of_spec spec in
    (match path with Some p -> write_spool ~path:p spec None | None -> ());
    let result =
      match resume_from with
      | Some snap when List.mem snap.Snapshot.stage resumable_stages ->
        (* restore the boundary state and run only the remaining suffix *)
        let stages =
          instrument t ~spec ~path (Flow.resume_stages ~stages:(flow_stages t cfg) ~after:snap.Snapshot.stage)
        in
        let ctx = Flow.context design cfg in
        Snapshot.restore snap ctx;
        Flow.run_ctx ~observer ~check:spec.P.check ~stages ctx
      | _ ->
        (* no snapshot (or one from a non-resumable boundary): the flow is
           deterministic, a clean re-run reproduces the same bits *)
        let stages = instrument t ~spec ~path (flow_stages t cfg) in
        Flow.run_ctx ~observer ~check:spec.P.check ~stages (Flow.context design cfg)
    in
    Cache.add t.bases (spec_key spec) (Eco.base_of_result result);
    finish_ok t ~out:spec.P.out result.Flow.design;
    (match path with Some p -> (try Sys.remove p with Sys_error _ -> ()) | None -> ());
    reply_fn
      (P.Done { job = id; hpwl = result.Flow.hpwl_final; wall_s = Unix.gettimeofday () -. t0; eco = None })
  with
  | Interrupted stage ->
    (* spool file stays behind for the restarted server to resume *)
    Atomic.incr t.failed;
    reply_fn (P.Failed { job = id; reason = Printf.sprintf "interrupted after %s (checkpointed)" stage })
  | e ->
    Atomic.incr t.failed;
    (match path with Some p -> (try Sys.remove p with Sys_error _ -> ()) | None -> ());
    reply_fn (P.Failed { job = id; reason = Printexc.to_string e })

exception Verify_failed of string

(* The differential gate: every cell the plan froze must sit exactly
   where the base placement left it — bit-for-bit, orientation included. *)
let verify_clean_region ~(base : Design.t) (r : Eco.result) =
  let d = r.Eco.flow.Flow.design in
  Array.iter
    (fun i ->
      if i < Design.num_cells base then
        if
          d.Design.x.(i) <> base.Design.x.(i)
          || d.Design.y.(i) <> base.Design.y.(i)
          || not (Dpp_geom.Orient.equal d.Design.orient.(i) base.Design.orient.(i))
        then
          raise
            (Verify_failed
               (Printf.sprintf "clean cell %d moved: (%g,%g) -> (%g,%g)" i base.Design.x.(i)
                  base.Design.y.(i) d.Design.x.(i) d.Design.y.(i))))
    r.Eco.plan.Eco.frozen

let run_eco t ~id ~(base_spec : P.job_spec) ~edits ~threshold ~verify ~reply_fn =
  let t0 = Unix.gettimeofday () in
  let observer stage = reply_fn (P.Event { job = id; stage }) in
  try
    let cfg = config_of_spec base_spec in
    let key = spec_key base_spec in
    let base =
      match Cache.find t.bases key with
      | Some b -> b
      | None ->
        (* cold base: place it now and remember it for the next delta *)
        let r =
          Flow.run_ctx ~check:base_spec.P.check ~stages:(flow_stages t cfg)
            (Flow.context (resolve_design base_spec.P.src) cfg)
        in
        let b = Eco.base_of_result r in
        Cache.add t.bases key b;
        b
    in
    let edits =
      match edits with
      | P.Edits e -> e
      | P.Random_edits { ops; seed } -> Eco.random_edits ~ops ~seed base.Eco.design
    in
    let r = Eco.run ~observer ~check:base_spec.P.check ?threshold ~base edits cfg in
    if verify && not r.Eco.fallback then verify_clean_region ~base:base.Eco.design r;
    finish_ok t ~out:base_spec.P.out r.Eco.flow.Flow.design;
    reply_fn
      (P.Done
         {
           job = id;
           hpwl = r.Eco.flow.Flow.hpwl_final;
           wall_s = Unix.gettimeofday () -. t0;
           eco =
             Some
               {
                 P.fallback = r.Eco.fallback;
                 dirty_fraction = r.Eco.plan.Eco.dirty_fraction;
               };
         })
  with e ->
    Atomic.incr t.failed;
    reply_fn (P.Failed { job = id; reason = Printexc.to_string e })

(* ----- connection handling ----- *)

let submit_request t (req : P.request) ~reply_fn =
  (* gate the job behind the Accepted reply so the client never sees an
     Event for a job id it has not been told about yet *)
  let gate = Semaphore.Binary.make false in
  let gated f ~id =
    Semaphore.Binary.acquire gate;
    f ~id
  in
  let submitted =
    match req with
    | P.Submit spec -> Scheduler.submit t.sched (gated (fun ~id -> run_submit t ~id ~spec ~reply_fn ()))
    | P.Eco_submit { base; edits; threshold; verify } ->
      Scheduler.submit t.sched
        (gated (fun ~id -> run_eco t ~id ~base_spec:base ~edits ~threshold ~verify ~reply_fn))
    | P.Ping | P.Shutdown -> invalid_arg "submit_request: not a job"
  in
  (match submitted with
  | `Queued id -> reply_fn (P.Accepted { job = id })
  | `Busy -> reply_fn (P.Rejected { reason = "queue full" }));
  Semaphore.Binary.release gate;
  submitted

let close_listener t =
  Mutex.lock t.listener_lock;
  (match t.listener with
  | Some fd ->
    t.listener <- None;
    (* shutdown before close: close alone does not wake a thread blocked
       inside accept(2) on this fd, so a stop request sent from a client
       handler would leave the accept loop parked forever *)
    (try Unix.shutdown fd Unix.SHUTDOWN_ALL with Unix.Unix_error _ -> ());
    (try Unix.close fd with Unix.Unix_error _ -> ())
  | None -> ());
  Mutex.unlock t.listener_lock

let request_stop t =
  Atomic.set t.stop_requested true;
  close_listener t

let handle_client t fd =
  let c = { fd; wlock = Mutex.create (); alive = true } in
  let reply_fn r = reply c r in
  let rec loop () =
    match P.read_frame fd with
    | None -> ()  (* clean EOF: client done *)
    | exception P.Protocol_error reason ->
      (* framing is broken, the stream cannot be resynchronized: report
         and drop the connection; in-flight jobs are unaffected *)
      reply c (P.Rejected { reason });
      Log.info (fun m -> m "dropping client: %s" reason)
    | Some payload -> (
      match P.request_of_json (Json.parse payload) with
      | exception (P.Protocol_error reason | Json.Parse_error reason) ->
        (* bad message in a well-formed frame: framing is intact, reject
           just this message and keep serving the connection *)
        reply c (P.Rejected { reason });
        loop ()
      | P.Ping ->
        reply c P.Pong;
        loop ()
      | P.Shutdown ->
        reply c P.Pong;
        request_stop t
      | req ->
        ignore (submit_request t req ~reply_fn : [ `Queued of int | `Busy ]);
        loop ())
  in
  loop ()

(* ----- spool resume ----- *)

let resume t =
  match t.cfg.spool with
  | None -> []
  | Some dir ->
    let files =
      Sys.readdir dir |> Array.to_list
      |> List.filter (fun f -> Filename.check_suffix f ".json")
      |> List.sort compare
    in
    List.filter_map
      (fun f ->
        let path = Filename.concat dir f in
        match
          let json = In_channel.with_open_bin path In_channel.input_all in
          let o = Json.parse json in
          let spec =
            match Json.member "spec" o with
            | Some s -> P.spec_of_json s
            | None -> raise (Json.Parse_error "spool record: missing spec")
          in
          let snapshot = Option.map Snapshot.of_json (Json.member "snapshot" o) in
          spec, snapshot
        with
        | exception e ->
          Log.err (fun m -> m "unreadable spool file %s: %s" path (Printexc.to_string e));
          None
        | spec, snapshot -> (
          (* consume the file: the job gets a fresh id and respools itself
             if it is interrupted again *)
          (try Sys.remove path with Sys_error _ -> ());
          match
            Scheduler.submit t.sched (fun ~id ->
                run_submit t ~id ~spec ~reply_fn:null_reply ?resume_from:snapshot ())
          with
          | `Queued id ->
            Log.info (fun m ->
                m "resuming spooled job as #%d%s" id
                  (match snapshot with
                  | Some s -> Printf.sprintf " from stage %s" s.Snapshot.stage
                  | None -> " from scratch"));
            Some id
          | `Busy ->
            Log.err (fun m -> m "queue full, spooled job %s dropped" f);
            None))
      files

(* ----- fault-injection and lifecycle ----- *)

let interrupt_after t stage = Atomic.set t.abort_after (Some stage)

let interrupt t =
  Atomic.set t.abort_all true;
  request_stop t

let drain t = Scheduler.drain t.sched

let shutdown t =
  request_stop t;
  Scheduler.shutdown t.sched

let alive_workers t = Scheduler.alive_workers t.sched
let stopping t = Atomic.get t.stop_requested

(* ----- socket front-end ----- *)

let listen_unix t ~path =
  if Sys.file_exists path then Unix.unlink path;
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.bind fd (Unix.ADDR_UNIX path);
  Unix.listen fd 16;
  Mutex.lock t.listener_lock;
  t.listener <- Some fd;
  Mutex.unlock t.listener_lock;
  Log.app (fun m -> m "listening on %s" path);
  let rec accept_loop () =
    if not (Atomic.get t.stop_requested) then
      match Unix.accept fd with
      | cfd, _ ->
        let (_ : Thread.t) =
          Thread.create
            (fun () ->
              Fun.protect
                ~finally:(fun () -> try Unix.close cfd with Unix.Unix_error _ -> ())
                (fun () -> handle_client t cfd))
            ()
        in
        accept_loop ()
      | exception Unix.Unix_error ((Unix.EBADF | Unix.EINVAL | Unix.ECONNABORTED | Unix.EINTR), _, _)
        ->
        if not (Atomic.get t.stop_requested) then accept_loop ()
  in
  accept_loop ();
  close_listener t;
  if Sys.file_exists path then (try Unix.unlink path with Unix.Unix_error _ -> ())
