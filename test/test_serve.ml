(* The serving layer: protocol round-trips (including truncated and
   oversized frames), the extraction cache, the scheduler pool, socketpair
   end-to-end jobs with concurrent clients, and the fault-injection
   matrix — disconnect mid-stream, malformed frames mid-job, and a
   simulated SIGTERM with checkpoint/restart/resume to identical bits. *)

module P = Dpp_serve.Protocol
module Cache = Dpp_serve.Cache
module Scheduler = Dpp_serve.Scheduler
module Server = Dpp_serve.Server
module Json = Dpp_report.Json
module Trace = Dpp_report.Trace
module Config = Dpp_core.Config
module Flow = Dpp_core.Flow
module Eco = Dpp_core.Eco
module Snapshot = Dpp_core.Checkpoint.Snapshot
module Design = Dpp_netlist.Design

(* ----- shared fixtures ----- *)

let test_dir =
  lazy
    (let dir = Filename.concat (Filename.get_temp_dir_name ()) "dpp_serve_test" in
     if not (Sys.file_exists dir) then Unix.mkdir dir 0o755;
     dir)

let in_dir name = Filename.concat (Lazy.force test_dir) name

let tiny_design () =
  Dpp_gen.Compose.build
    {
      Dpp_gen.Compose.sp_name = "srv_tiny";
      sp_seed = 23;
      sp_blocks = [ Dpp_gen.Compose.Adder 16; Regbank 16 ];
      sp_random_cells = 150;
      sp_utilization = 0.7;
    }

(* one Bookshelf copy of the tiny design, shared by every server job *)
let tiny_base =
  lazy
    (let base = in_dir "srv_tiny" in
     Dpp_netlist.Bookshelf.write (tiny_design ()) ~basename:base;
     base)

let tiny_spec ?check ?out () =
  P.spec ?check ?out ~gp_rounds:4 ~gp_inner_iters:10 ~detail_passes:1
    (P.Bookshelf { basename = Lazy.force tiny_base })

let fast_cfg =
  { Config.baseline with Config.gp_rounds = 4; gp_inner_iters = 10; detail_passes = 1 }

(* collect a client's responses in submission order, thread-safely *)
let collector () =
  let lock = Mutex.create () in
  let acc = ref [] in
  let push r =
    Mutex.lock lock;
    acc := r :: !acc;
    Mutex.unlock lock
  in
  let all () =
    Mutex.lock lock;
    let l = List.rev !acc in
    Mutex.unlock lock;
    l
  in
  push, all

let read_file path = In_channel.with_open_bin path In_channel.input_all

(* ----- protocol: message round-trips ----- *)

let roundtrip_request r = P.request_of_json (Json.parse (Json.encode (P.request_to_json r)))
let roundtrip_response r = P.response_of_json (Json.parse (Json.encode (P.response_to_json r)))

let test_protocol_requests () =
  let spec =
    P.spec ~mode:Config.Structure_aware ~check:true ~jobs:2 ~gp_rounds:5 ~out:"/tmp/x"
      (P.Preset { name = "dp_mix_l"; seed = 3 })
  in
  List.iter
    (fun r -> Alcotest.(check bool) "request round-trips" true (roundtrip_request r = r))
    [
      P.Submit spec;
      P.Submit (P.spec (P.Bookshelf { basename = "bench/foo" }));
      P.Eco_submit
        {
          base = spec;
          edits =
            P.Edits
              [
                Eco.Move { cell = 4; dx = 1.5; dy = -3.0 };
                Eco.Resize { cell = 7; scale = 2.0 };
                Eco.Rewire { net = 2; pin_index = 1; to_cell = 9 };
                Eco.Add { near = 5; w = 6.0; nets = [ 1; 2 ] };
              ];
          threshold = Some 0.1;
          verify = true;
        };
      P.Eco_submit
        { base = spec; edits = P.Random_edits { ops = 6; seed = 42 }; threshold = None; verify = false };
      P.Ping;
      P.Shutdown;
    ]

let test_protocol_responses () =
  let stage =
    {
      Trace.name = "legal";
      wall_s = 0.25;
      t_s = 1.5;
      hpwl_before = 100.0;
      hpwl_after = 120.0;
      overflow = Some 0.5;
      vm_hwm_kb = 4096;
      heap_kb = 2048;
      levels = [];
      check = Some { Trace.ok = true; oracles = [ "legality" ]; violations = [] };
      extra = [ "job", Json.Num 7.0 ];
    }
  in
  List.iter
    (fun r -> Alcotest.(check bool) "response round-trips" true (roundtrip_response r = r))
    [
      P.Accepted { job = 3 };
      P.Rejected { reason = "queue full" };
      P.Event { job = 3; stage };
      P.Done { job = 3; hpwl = 1234.0; wall_s = 0.75; eco = None };
      P.Done
        { job = 4; hpwl = 99.0; wall_s = 0.5; eco = Some { P.fallback = false; dirty_fraction = 0.03 } };
      P.Failed { job = 3; reason = "boom" };
      P.Pong;
    ]

let test_protocol_malformed () =
  let expect_error name f = Alcotest.check_raises name (P.Protocol_error "") (fun () ->
      try f () with P.Protocol_error _ -> raise (P.Protocol_error ""))
  in
  expect_error "unknown op" (fun () -> ignore (P.request_of_json (Json.parse {|{"op":"nope"}|})));
  expect_error "missing spec" (fun () -> ignore (P.request_of_json (Json.parse {|{"op":"submit"}|})));
  expect_error "eco without edits" (fun () ->
      ignore (P.request_of_json (Json.parse {|{"op":"eco","base":{"src":{"kind":"bookshelf","basename":"x"},"mode":"baseline"}}|})));
  expect_error "bad mode" (fun () ->
      ignore (P.request_of_json (Json.parse {|{"op":"submit","spec":{"src":{"kind":"bookshelf","basename":"x"},"mode":"quantum"}}|})));
  expect_error "unknown response op" (fun () ->
      ignore (P.response_of_json (Json.parse {|{"op":"yo"}|})))

(* ----- protocol: framing ----- *)

let test_frame_roundtrip () =
  let payload = {|{"op":"ping"}|} in
  let decoded, rest = P.decode_frame (P.encode_frame payload) in
  Alcotest.(check string) "payload" payload decoded;
  Alcotest.(check int) "no trailing bytes" 0 rest;
  (* two frames back to back: the remainder is exactly the second frame *)
  let two = P.encode_frame payload ^ P.encode_frame "{}" in
  let _, rest = P.decode_frame two in
  Alcotest.(check int) "second frame pending" (String.length (P.encode_frame "{}")) rest

let test_frame_rejects () =
  let expect_error name f =
    match f () with
    | exception P.Protocol_error _ -> ()
    | _ -> Alcotest.failf "%s: expected Protocol_error" name
  in
  expect_error "truncated payload" (fun () ->
      let full = P.encode_frame {|{"op":"ping"}|} in
      P.decode_frame (String.sub full 0 (String.length full - 4)));
  expect_error "truncated header" (fun () -> P.decode_frame "DPP1 14");
  expect_error "bad magic" (fun () -> P.decode_frame "DPPX 2\n{}");
  expect_error "negative length" (fun () -> P.decode_frame "DPP1 -4\n{}");
  expect_error "oversized" (fun () -> P.decode_frame ~max_len:8 (P.encode_frame "{\"op\":\"ping\"}"));
  (* declared length far beyond the limit must be rejected before any
     allocation of that size *)
  expect_error "huge declared length" (fun () -> P.decode_frame "DPP1 99999999999\n{}")

let test_frame_fd_io () =
  let a, b = Unix.socketpair Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  P.write_frame a {|{"op":"ping"}|};
  P.write_frame a "{}";
  Alcotest.(check (option string)) "first" (Some {|{"op":"ping"}|}) (P.read_frame b);
  Alcotest.(check (option string)) "second" (Some "{}") (P.read_frame b);
  (* truncated: a partial frame then writer close *)
  let partial = P.encode_frame {|{"op":"ping"}|} in
  ignore (Unix.write_substring a partial 0 (String.length partial - 3) : int);
  Unix.close a;
  (match P.read_frame b with
  | exception P.Protocol_error _ -> ()
  | _ -> Alcotest.fail "expected truncated-frame error");
  Unix.close b;
  (* clean EOF at a frame boundary is None, not an error *)
  let a, b = Unix.socketpair Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.close a;
  Alcotest.(check (option string)) "clean EOF" None (P.read_frame b);
  Unix.close b

(* ----- extraction cache ----- *)

let test_cache_hash () =
  let d1 = tiny_design () and d2 = tiny_design () in
  Alcotest.(check bool) "identical structure, equal keys" true
    (Int64.equal (Cache.hash_design d1) (Cache.hash_design d2));
  let other =
    Dpp_gen.Compose.build
      {
        Dpp_gen.Compose.sp_name = "srv_tiny";
        sp_seed = 24;  (* different seed: different glue structure *)
        sp_blocks = [ Dpp_gen.Compose.Adder 16; Regbank 16 ];
        sp_random_cells = 150;
        sp_utilization = 0.7;
      }
  in
  Alcotest.(check bool) "different structure, different keys" false
    (Int64.equal (Cache.hash_design d1) (Cache.hash_design other));
  (* moving a cell must not change the key: extraction is structural *)
  let moved = tiny_design () in
  Design.set_center moved 0 (Design.cell_center_x moved 0 +. 4.0) (Design.cell_center_y moved 0);
  Alcotest.(check bool) "positions do not key the cache" true
    (Int64.equal (Cache.hash_design d1) (Cache.hash_design moved))

let test_cache_lru () =
  let c = Cache.create ~capacity:2 in
  let entry =
    {
      Cache.slicer = { Dpp_extract.Slicer.groups = []; seeds_control = 0; seeds_chain = 0; columns_grown = 0 };
      metrics = Dpp_extract.Exmetrics.compare_to_truth ~truth:[] ~found:[];
    }
  in
  Cache.add c 1L entry;
  Cache.add c 2L entry;
  Alcotest.(check bool) "hit" true (Cache.find c 1L <> None);
  Cache.add c 3L entry;  (* 2 is now least recent: evicted *)
  Alcotest.(check bool) "evicted" true (Cache.find c 2L = None);
  Alcotest.(check bool) "recency respected" true (Cache.find c 1L <> None);
  let s = Cache.stats c in
  Alcotest.(check int) "size bounded" 2 s.Cache.size;
  Alcotest.(check int) "evictions counted" 1 s.Cache.evictions

let test_cache_extract_stage () =
  let cache = Cache.create ~capacity:4 in
  let cfg = { fast_cfg with Config.mode = Config.Structure_aware } in
  let stages =
    List.map
      (fun (s : Flow.stage) -> if s.Flow.name = "extract" then Cache.extract_stage cache else s)
      (Flow.stages cfg)
  in
  let r1 = Flow.run_stages ~stages (tiny_design ()) cfg in
  let r2 = Flow.run_stages ~stages (tiny_design ()) cfg in
  let s = Cache.stats cache in
  Alcotest.(check int) "one miss" 1 s.Cache.misses;
  Alcotest.(check int) "one hit" 1 s.Cache.hits;
  Alcotest.(check (float 0.0)) "same placement either way" r1.Flow.hpwl_final r2.Flow.hpwl_final;
  Alcotest.(check int) "same groups" (List.length r1.Flow.groups_used)
    (List.length r2.Flow.groups_used)

(* ----- scheduler ----- *)

let test_scheduler_runs_jobs () =
  let s = Scheduler.create ~workers:3 ~queue:16 in
  let count = Atomic.make 0 in
  let ids = collector () in
  let push, all = ids in
  for _ = 1 to 10 do
    match
      Scheduler.submit s (fun ~id ->
          push id;
          Atomic.incr count)
    with
    | `Queued _ -> ()
    | `Busy -> Alcotest.fail "queue unexpectedly full"
  done;
  Scheduler.drain s;
  Alcotest.(check int) "all jobs ran" 10 (Atomic.get count);
  let sorted = List.sort compare (all ()) in
  Alcotest.(check (list int)) "ids unique and dense" (List.init 10 (fun i -> i + 1)) sorted;
  Scheduler.shutdown s;
  Alcotest.(check int) "no orphaned workers" 0 (Scheduler.alive_workers s)

let test_scheduler_backpressure () =
  let s = Scheduler.create ~workers:1 ~queue:1 in
  let gate = Semaphore.Binary.make false in
  let started = Semaphore.Binary.make false in
  (* job 1 occupies the worker until released *)
  (match
     Scheduler.submit s (fun ~id:_ ->
         Semaphore.Binary.release started;
         Semaphore.Binary.acquire gate)
   with
  | `Queued _ -> ()
  | `Busy -> Alcotest.fail "first submit rejected");
  Semaphore.Binary.acquire started;
  (* job 2 fills the queue slot; job 3 must bounce *)
  (match Scheduler.submit s (fun ~id:_ -> ()) with
  | `Queued _ -> ()
  | `Busy -> Alcotest.fail "second submit rejected");
  (match Scheduler.submit s (fun ~id:_ -> ()) with
  | `Busy -> ()
  | `Queued _ -> Alcotest.fail "third submit should bounce off the full queue");
  Semaphore.Binary.release gate;
  Scheduler.drain s;
  Scheduler.shutdown s;
  (match Scheduler.submit s (fun ~id:_ -> ()) with
  | `Busy -> ()
  | `Queued _ -> Alcotest.fail "submit after shutdown should bounce");
  Alcotest.(check int) "workers joined" 0 (Scheduler.alive_workers s)

let test_scheduler_contains_raise () =
  let s = Scheduler.create ~workers:1 ~queue:4 in
  let ran = Atomic.make false in
  ignore (Scheduler.submit s (fun ~id:_ -> failwith "job explodes"));
  ignore (Scheduler.submit s (fun ~id:_ -> Atomic.set ran true));
  Scheduler.drain s;
  Alcotest.(check bool) "worker survived the raising job" true (Atomic.get ran);
  Scheduler.shutdown s

(* ----- end-to-end over a socketpair ----- *)

let with_server ?(workers = 2) ?spool f =
  let cfg = { Server.default_cfg with Server.workers; spool } in
  let t = Server.create ~cfg () in
  Fun.protect ~finally:(fun () -> Server.shutdown t) (fun () -> f t)

(* run one client conversation: send the requests, then read responses
   until [done_count] Done/Failed/Rejected verdicts have arrived *)
let converse t requests ~verdicts =
  let client, server = Unix.socketpair Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  let handler = Thread.create (fun () -> Server.handle_client t server) () in
  List.iter (P.send_request client) requests;
  let responses = ref [] in
  let seen = ref 0 in
  (try
     while !seen < verdicts do
       match P.recv_response client with
       | None -> seen := verdicts
       | Some r ->
         responses := r :: !responses;
         (match r with
         | P.Done _ | P.Failed _ | P.Rejected _ -> incr seen
         | _ -> ())
     done
   with P.Protocol_error _ -> ());
  Unix.close client;
  Thread.join handler;
  Unix.close server;
  List.rev !responses

let stage_names job responses =
  List.filter_map
    (function P.Event { job = j; stage } when j = job -> Some stage.Trace.name | _ -> None)
    responses

let test_e2e_single_job () =
  with_server (fun t ->
      let responses = converse t [ P.Submit (tiny_spec ~check:true ()) ] ~verdicts:1 in
      let job =
        match responses with
        | P.Accepted { job } :: _ -> job
        | _ -> Alcotest.fail "expected Accepted first"
      in
      Alcotest.(check (list string)) "stages stream in flow order"
        [ "init"; "gp"; "snap"; "legal"; "detail"; "flip"; "metrics" ]
        (stage_names job responses);
      match List.rev responses with
      | P.Done { job = j; hpwl; _ } :: _ ->
        Alcotest.(check int) "verdict attributed" job j;
        Alcotest.(check bool) "hpwl positive" true (hpwl > 0.0)
      | _ -> Alcotest.fail "expected Done last")

(* Every catalogue name resolves in the daemon, rt_channel included. *)
let test_e2e_rt_channel_preset () =
  with_server ~workers:1 (fun t ->
      let spec =
        P.spec ~gp_rounds:2 ~gp_inner_iters:5 ~detail_passes:1
          (P.Preset { name = Dpp_gen.Channel.name; seed = 1 })
      in
      match List.rev (converse t [ P.Submit spec ] ~verdicts:1) with
      | P.Done { hpwl; _ } :: _ -> Alcotest.(check bool) "hpwl positive" true (hpwl > 0.0)
      | P.Failed { reason; _ } :: _ -> Alcotest.failf "rt_channel submit failed: %s" reason
      | _ -> Alcotest.fail "expected Done last")

let test_e2e_ping_and_malformed_message () =
  with_server (fun t ->
      let client, server = Unix.socketpair Unix.PF_UNIX Unix.SOCK_STREAM 0 in
      let handler = Thread.create (fun () -> Server.handle_client t server) () in
      P.send_request client P.Ping;
      Alcotest.(check bool) "pong" true (P.recv_response client = Some P.Pong);
      (* valid frame, nonsense message: Rejected, connection survives *)
      P.write_frame client {|{"op":"transmogrify"}|};
      (match P.recv_response client with
      | Some (P.Rejected _) -> ()
      | _ -> Alcotest.fail "expected Rejected for unknown op");
      P.send_request client P.Ping;
      Alcotest.(check bool) "still serving after rejection" true
        (P.recv_response client = Some P.Pong);
      Unix.close client;
      Thread.join handler;
      Unix.close server)

(* Regression: a Shutdown frame arriving over the real socket front-end must
   terminate the accept loop.  Closing the listening fd alone does not wake a
   thread blocked in accept(2), so close_listener must shut the socket down
   first; without that the daemon parks forever and this join never returns. *)
let test_e2e_socket_shutdown () =
  with_server ~workers:1 (fun t ->
      let path = in_dir "stop.sock" in
      let listener = Thread.create (fun () -> Server.listen_unix t ~path) () in
      let rec connect tries =
        match
          let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
          Unix.connect fd (Unix.ADDR_UNIX path);
          fd
        with
        | fd -> fd
        | exception Unix.Unix_error _ when tries > 0 ->
          Thread.delay 0.05;
          connect (tries - 1)
      in
      let fd = connect 100 in
      P.send_request fd P.Ping;
      Alcotest.(check bool) "served over the socket" true (P.recv_response fd = Some P.Pong);
      P.send_request fd P.Shutdown;
      Alcotest.(check bool) "shutdown acknowledged" true (P.recv_response fd = Some P.Pong);
      Unix.close fd;
      Thread.join listener;
      Alcotest.(check bool) "stop latched" true (Server.stopping t))

let test_e2e_concurrent_clients () =
  with_server ~workers:3 (fun t ->
      let clients = 3 in
      let results = Array.make clients [] in
      let threads =
        List.init clients (fun k ->
            Thread.create
              (fun () -> results.(k) <- converse t [ P.Submit (tiny_spec ()) ] ~verdicts:1)
              ())
      in
      List.iter Thread.join threads;
      let jobs =
        Array.to_list results
        |> List.map (fun rs ->
               match rs with
               | P.Accepted { job } :: _ -> job
               | _ -> Alcotest.fail "client missing Accepted")
      in
      Alcotest.(check int) "distinct job ids" clients
        (List.length (List.sort_uniq compare jobs));
      List.iteri
        (fun k rs ->
          let mine = List.nth jobs k in
          (* every streamed message a client sees belongs to its own job *)
          List.iter
            (function
              | P.Event { job; _ } | P.Done { job; _ } | P.Failed { job; _ } ->
                Alcotest.(check int) "attribution" mine job
              | _ -> ())
            rs;
          match List.rev rs with
          | P.Done _ :: _ -> ()
          | _ -> Alcotest.failf "client %d: expected Done" k)
        (Array.to_list results))

let test_e2e_two_jobs_one_connection () =
  with_server ~workers:2 (fun t ->
      let spec = tiny_spec () in
      let responses = converse t [ P.Submit spec; P.Submit spec ] ~verdicts:2 in
      let jobs =
        List.filter_map (function P.Accepted { job } -> Some job | _ -> None) responses
      in
      Alcotest.(check int) "two accepted" 2 (List.length jobs);
      List.iter
        (fun j ->
          Alcotest.(check (list string)) "interleaved stream demultiplexes by job id"
            [ "init"; "gp"; "snap"; "legal"; "detail"; "flip"; "metrics" ]
            (stage_names j responses))
        jobs)

(* The base table evicts the least recently used base: after 17
   distinct placements the first is gone and the 16 after it are warm
   (an ECO against any of them skips the cold placement). *)
let test_base_table_lru () =
  with_server ~workers:1 (fun t ->
      let spec k =
        P.spec ~gp_rounds:k ~gp_inner_iters:2 ~detail_passes:1
          (P.Bookshelf { basename = Lazy.force tiny_base })
      in
      let push, all = collector () in
      (* one at a time: 17 jobs would overflow the 16-slot queue *)
      for k = 1 to 17 do
        ignore (Server.submit_request t (P.Submit (spec k)) ~reply_fn:push : [ `Queued of int | `Busy ]);
        Server.drain t
      done;
      let dones = List.filter (function P.Done _ -> true | _ -> false) (all ()) in
      Alcotest.(check int) "17 bases placed" 17 (List.length dones);
      Alcotest.(check bool) "the least recent is evicted" false (Server.base_warm t (spec 1));
      for k = 2 to 17 do
        Alcotest.(check bool) (Printf.sprintf "base %d still warm" k) true (Server.base_warm t (spec k))
      done)

(* ----- fault injection ----- *)

let test_fault_disconnect_mid_stream () =
  with_server (fun t ->
      let client, server = Unix.socketpair Unix.PF_UNIX Unix.SOCK_STREAM 0 in
      let handler = Thread.create (fun () -> Server.handle_client t server) () in
      let out = in_dir "disc" in
      P.send_request client (P.Submit (tiny_spec ~out ()));
      (* wait for acceptance, then vanish mid-stream *)
      (match P.recv_response client with
      | Some (P.Accepted _) -> ()
      | _ -> Alcotest.fail "expected Accepted");
      Unix.close client;
      Thread.join handler;
      Unix.close server;
      Server.drain t;
      Alcotest.(check bool) "job finished without a client" true
        (Sys.file_exists (out ^ ".pl"));
      Alcotest.(check int) "no failure recorded" 0 (Server.jobs_failed t))

let test_fault_malformed_frame_mid_job () =
  with_server (fun t ->
      let client, server = Unix.socketpair Unix.PF_UNIX Unix.SOCK_STREAM 0 in
      let handler = Thread.create (fun () -> Server.handle_client t server) () in
      let out = in_dir "malformed" in
      P.send_request client (P.Submit (tiny_spec ~out ()));
      (match P.recv_response client with
      | Some (P.Accepted _) -> ()
      | _ -> Alcotest.fail "expected Accepted");
      (* garbage on the wire while the job runs: the connection is
         dropped (stream unsynchronizable) but the job must complete *)
      ignore (Unix.write_substring client "GARBAGE\n" 0 8 : int);
      Thread.join handler;
      Unix.close server;
      Unix.close client;
      Server.drain t;
      Alcotest.(check bool) "job survived the bad frame" true (Sys.file_exists (out ^ ".pl"));
      Alcotest.(check int) "job did not fail" 0 (Server.jobs_failed t))

(* SIGTERM mid-job, deterministically: abort right after the named stage
   checkpoints, restart a server over the same spool, resume, and compare
   against an uninterrupted run bit for bit. *)
let check_kill_resume ~kill_after () =
  let spool = in_dir (Printf.sprintf "spool_%s" kill_after) in
  if Sys.file_exists spool then
    Array.iter (fun f -> Sys.remove (Filename.concat spool f)) (Sys.readdir spool);
  let out_resumed = in_dir (Printf.sprintf "resumed_%s" kill_after) in
  let out_straight = in_dir (Printf.sprintf "straight_%s" kill_after) in
  (* uninterrupted reference *)
  with_server (fun t ->
      let push, all = collector () in
      ignore (Server.submit_request t (P.Submit (tiny_spec ~out:out_straight ())) ~reply_fn:push);
      Server.drain t;
      match List.rev (all ()) with
      | P.Done _ :: _ -> ()
      | _ -> Alcotest.fail "reference run should succeed");
  (* interrupted run: the job dies right after [kill_after] checkpoints *)
  with_server ~spool (fun t ->
      Server.interrupt_after t kill_after;
      let push, all = collector () in
      ignore (Server.submit_request t (P.Submit (tiny_spec ~out:out_resumed ())) ~reply_fn:push);
      Server.drain t;
      (match List.rev (all ()) with
      | P.Failed { reason; _ } :: _ ->
        Alcotest.(check bool) "failure names the interruption" true
          (String.length reason > 0 && String.sub reason 0 11 = "interrupted")
      | _ -> Alcotest.fail "interrupted job should report Failed");
      Alcotest.(check bool) "checkpoint spooled" true (Sys.readdir spool <> [||]));
  (* restart: a fresh server over the same spool resumes and finishes *)
  with_server ~spool (fun t ->
      let resumed = Server.resume t in
      Alcotest.(check int) "one spooled job resumed" 1 (List.length resumed);
      Server.drain t;
      Alcotest.(check int) "resumed job completed" 1 (Server.jobs_completed t);
      Alcotest.(check (list string)) "spool consumed" [] (Array.to_list (Sys.readdir spool)));
  Alcotest.(check string)
    (Printf.sprintf "kill after %s: resumed placement is bit-identical" kill_after)
    (read_file (out_straight ^ ".pl"))
    (read_file (out_resumed ^ ".pl"))

let test_kill_after_legal () = check_kill_resume ~kill_after:"legal" ()

(* gp is not a resumable boundary: the spool holds only the spec and the
   restarted server re-runs the deterministic flow from scratch *)
let test_kill_after_gp () = check_kill_resume ~kill_after:"gp" ()

(* ----- snapshot codec ----- *)

let test_snapshot_codec () =
  let s =
    {
      Snapshot.stage = "legal";
      design = "srv_tiny";
      cx = [| 1.5; 2.25; 3.0 |];
      cy = [| 0.5; 1.0; 8.0 |];
      orient = [| Dpp_geom.Orient.N; Dpp_geom.Orient.FN; Dpp_geom.Orient.N |];
      skip_ids = [| 2 |];
      flip_skip_ids = [||];
      obstacles = [ Dpp_geom.Rect.make ~xl:0.0 ~yl:0.0 ~xh:4.0 ~yh:2.0 ];
      bound = Some (Dpp_geom.Rect.make ~xl:1.0 ~yl:1.0 ~xh:3.0 ~yh:2.0);
      assignment = [| 0; 1; -1 |];
      failed = [ 2 ];
    }
  in
  Alcotest.(check bool) "snapshot encode/decode round-trips" true
    (Snapshot.decode (Snapshot.encode s) = s)

(* a spool record that does not fit the design is refused at restore,
   naming the field, before any stage can trip over it *)
let test_snapshot_restore_rejects_misfit () =
  let d = tiny_design () in
  let fresh () = Flow.context d fast_cfg in
  let s = Snapshot.capture ~stage:"legal" (fresh ()) in
  let n = Array.length s.Snapshot.cx in
  Snapshot.restore s (fresh ());
  let rejects field bad =
    match Snapshot.restore bad (fresh ()) with
    | () -> Alcotest.failf "a snapshot with a misfit %s was installed" field
    | exception Invalid_argument msg ->
      let prefix = Printf.sprintf "Snapshot.restore: %s " field in
      Alcotest.(check bool)
        (Printf.sprintf "%S names %s" msg field)
        true
        (String.starts_with ~prefix msg)
  in
  rejects "cy" { s with Snapshot.cy = Array.sub s.Snapshot.cy 0 (n - 1) };
  rejects "assignment" { s with Snapshot.assignment = Array.make (n + 1) 0 };
  rejects "skip_ids" { s with Snapshot.skip_ids = [| n |] };
  rejects "flip_skip_ids" { s with Snapshot.flip_skip_ids = [| -1 |] };
  rejects "failed" { s with Snapshot.failed = [ 0; n ] }

(* ----- suite ----- *)

let suite =
  [
    Alcotest.test_case "protocol request roundtrip" `Quick test_protocol_requests;
    Alcotest.test_case "protocol response roundtrip" `Quick test_protocol_responses;
    Alcotest.test_case "protocol malformed messages" `Quick test_protocol_malformed;
    Alcotest.test_case "frame roundtrip" `Quick test_frame_roundtrip;
    Alcotest.test_case "frame rejects truncated oversized" `Quick test_frame_rejects;
    Alcotest.test_case "frame fd io" `Quick test_frame_fd_io;
    Alcotest.test_case "cache structural hash" `Quick test_cache_hash;
    Alcotest.test_case "cache lru eviction" `Quick test_cache_lru;
    Alcotest.test_case "cache extract stage" `Slow test_cache_extract_stage;
    Alcotest.test_case "scheduler runs jobs" `Quick test_scheduler_runs_jobs;
    Alcotest.test_case "scheduler backpressure" `Quick test_scheduler_backpressure;
    Alcotest.test_case "scheduler contains raise" `Quick test_scheduler_contains_raise;
    Alcotest.test_case "e2e single job" `Slow test_e2e_single_job;
    Alcotest.test_case "e2e rt_channel preset" `Quick test_e2e_rt_channel_preset;
    Alcotest.test_case "e2e ping and malformed message" `Quick test_e2e_ping_and_malformed_message;
    Alcotest.test_case "e2e socket shutdown" `Quick test_e2e_socket_shutdown;
    Alcotest.test_case "e2e concurrent clients" `Slow test_e2e_concurrent_clients;
    Alcotest.test_case "e2e two jobs one connection" `Slow test_e2e_two_jobs_one_connection;
    Alcotest.test_case "base table lru" `Slow test_base_table_lru;
    Alcotest.test_case "fault disconnect mid stream" `Slow test_fault_disconnect_mid_stream;
    Alcotest.test_case "fault malformed frame mid job" `Slow test_fault_malformed_frame_mid_job;
    Alcotest.test_case "fault kill after legal resumes" `Slow test_kill_after_legal;
    Alcotest.test_case "fault kill after gp reruns" `Slow test_kill_after_gp;
    Alcotest.test_case "snapshot codec" `Quick test_snapshot_codec;
    Alcotest.test_case "snapshot restore rejects misfit" `Quick
      test_snapshot_restore_rejects_misfit;
  ]
