(* The deterministic-equivalence suite for the domain-parallel kernels.

   Every comparison here is bit-exact ([Float.equal] per element, no
   tolerance): the wirelength and netbox kernels promise identity with
   the serial code at any worker count, the chunk-merged bell and RUDY
   kernels promise identity across worker counts, and the whole flow
   promises the same final placement at -jobs 1 and -jobs 4. *)

module Rect = Dpp_geom.Rect
module Types = Dpp_netlist.Types
module Builder = Dpp_netlist.Builder
module Design = Dpp_netlist.Design
module Pool = Dpp_par.Pool
module Pins = Dpp_wirelen.Pins
module Lse = Dpp_wirelen.Lse
module Par_grad = Dpp_wirelen.Par_grad
module Netbox = Dpp_wirelen.Netbox
module Grid = Dpp_density.Grid
module Bell = Dpp_density.Bell
module Rudy = Dpp_congest.Rudy
module Check = Dpp_check
module Config = Dpp_core.Config
module Flow = Dpp_core.Flow
module Gp = Dpp_place.Gp
module Trace = Dpp_report.Trace

let worker_counts = [ 1; 2; 3; 8 ]

let check_bits what a b =
  Alcotest.(check int) (what ^ " length") (Array.length a) (Array.length b);
  Array.iteri
    (fun i v ->
      if not (Float.equal v b.(i)) then
        Alcotest.failf "%s[%d]: %.17g <> %.17g" what i v b.(i))
    a

let check_float what a b =
  if not (Float.equal a b) then Alcotest.failf "%s: %.17g <> %.17g" what a b

(* one net much larger than a static chunk of the (single-element) net
   list: all 60 pins of 30 cells *)
let huge_net_design () =
  let die = Rect.make ~xl:0.0 ~yl:0.0 ~xh:200.0 ~yh:30.0 in
  let b = Builder.create ~name:"huge" ~die ~row_height:10.0 ~site_width:1.0 () in
  let pins = ref [] in
  for k = 0 to 29 do
    let id =
      Builder.add_cell b ~name:(Printf.sprintf "h%d" k) ~master:"X" ~w:4.0 ~h:10.0
        ~kind:Types.Movable
    in
    let p1 = Builder.add_pin b ~cell:id ~dir:Types.Input ~dx:1.0 ~dy:2.0 () in
    let p2 = Builder.add_pin b ~cell:id ~dir:Types.Output ~dx:3.0 ~dy:8.0 () in
    pins := p2 :: p1 :: !pins;
    Builder.set_position b id
      ~x:(float_of_int (k mod 10) *. 19.0)
      ~y:(float_of_int (k / 10) *. 10.0)
  done;
  ignore (Builder.add_net b !pins);
  Builder.finish b

(* seeded designs incl. the degenerate corners: no nets, one cell, one
   net larger than a chunk *)
let designs () =
  [
    "random", Tutil.random_design 3;
    "dense", Tutil.random_design ~cells:40 ~nets:60 7;
    "no nets", Tutil.random_design ~nets:0 5;
    "one cell", Tutil.random_design ~cells:1 ~nets:1 11;
    "huge net", huge_net_design ();
  ]

(* ----- pool mechanics ----- *)

let test_pool_chunks_partition () =
  List.iter
    (fun n ->
      let lo_prev = ref 0 in
      for c = 0 to Pool.chunk_count - 1 do
        let lo, hi = Pool.chunk_bounds ~n c in
        Alcotest.(check int) (Printf.sprintf "n=%d chunk %d contiguous" n c) !lo_prev lo;
        Alcotest.(check bool) "ordered" true (lo <= hi);
        lo_prev := hi
      done;
      Alcotest.(check int) (Printf.sprintf "n=%d covered" n) n !lo_prev)
    [ 0; 1; 5; 16; 17; 100; 1000 ]

let test_pool_iter_chunks_visits_once () =
  List.iter
    (fun w ->
      Pool.with_pool ~nworkers:w @@ fun pool ->
      List.iter
        (fun n ->
          let seen = Array.make (max 1 n) 0 in
          let chunks = ref 0 in
          let m = Mutex.create () in
          Pool.iter_chunks pool ~n (fun ~worker:_ ~chunk:_ ~lo ~hi ->
              Mutex.lock m;
              incr chunks;
              Mutex.unlock m;
              for i = lo to hi - 1 do
                seen.(i) <- seen.(i) + 1
              done);
          Alcotest.(check int)
            (Printf.sprintf "w=%d n=%d all chunks visited" w n)
            Pool.chunk_count !chunks;
          if n > 0 then
            Alcotest.(check bool)
              (Printf.sprintf "w=%d n=%d each index once" w n)
              true
              (Array.for_all (fun c -> c = 1) seen))
        [ 0; 1; 7; 16; 250 ])
    worker_counts

let test_pool_run_each_worker () =
  List.iter
    (fun w ->
      Pool.with_pool ~nworkers:w @@ fun pool ->
      let hits = Array.make w 0 in
      Pool.run pool (fun i -> hits.(i) <- hits.(i) + 1);
      Alcotest.(check bool)
        (Printf.sprintf "w=%d every worker ran once" w)
        true
        (Array.for_all (fun c -> c = 1) hits))
    worker_counts

(* a worker at or above [chunk_count] would never receive a chunk, so
   the width is capped there; creating a pool spawns nothing, so the cap
   is checked without starting a domain *)
let test_pool_width_capped () =
  List.iter
    (fun (asked, got) ->
      Alcotest.(check int)
        (Printf.sprintf "nworkers %d" asked)
        got
        (Pool.nworkers (Pool.create ~nworkers:asked)))
    [ -3, 1; 0, 1; 1, 1; 8, 8; Pool.chunk_count, Pool.chunk_count; 17, Pool.chunk_count;
      100_000, Pool.chunk_count ]

exception Boom

let test_pool_propagates_exceptions () =
  List.iter
    (fun w ->
      Pool.with_pool ~nworkers:w @@ fun pool ->
      let raised =
        try
          Pool.run pool (fun i -> if i = w - 1 then raise Boom);
          false
        with Boom -> true
      in
      Alcotest.(check bool) (Printf.sprintf "w=%d exception surfaces" w) true raised;
      (* the pool must stay usable after a failed job *)
      let ok = ref 0 in
      let m = Mutex.create () in
      Pool.run pool (fun _ ->
          Mutex.lock m;
          incr ok;
          Mutex.unlock m);
      Alcotest.(check int) "pool survives" w !ok)
    worker_counts

(* ----- wirelength: bit-identical to the serial kernels ----- *)

let test_lse_kernels_bit_exact () =
  List.iter
    (fun (dname, d) ->
      let pins = Pins.build d in
      let nc = Design.num_cells d in
      let cx, cy = Pins.centers_of_design d in
      let gamma = 2.0 in
      let gx = Array.make nc 0.0 and gy = Array.make nc 0.0 in
      let v_serial = Lse.value_grad pins ~gamma ~cx ~cy ~gx ~gy in
      let val_serial = Lse.value pins ~gamma ~cx ~cy in
      List.iter
        (fun w ->
          Pool.with_pool ~nworkers:w @@ fun pool ->
          let pg = Par_grad.create pool pins in
          let gx' = Array.make nc 0.0 and gy' = Array.make nc 0.0 in
          let v = Par_grad.value_grad pg pool ~gamma ~cx ~cy ~gx:gx' ~gy:gy' in
          let tag fmt = Printf.sprintf "%s w=%d %s" dname w fmt in
          check_float (tag "value_grad value") v_serial v;
          check_float (tag "value") val_serial (Par_grad.value pg pool ~gamma ~cx ~cy);
          check_bits (tag "gx") gx gx';
          check_bits (tag "gy") gy gy')
        worker_counts)
    (designs ())

(* ----- density: bit-stable across worker counts ----- *)

let test_bell_worker_count_independent () =
  List.iter
    (fun (dname, d) ->
      let nx, ny = Grid.default_dims d in
      let grid = Grid.build d ~nx ~ny in
      let bell = Bell.create d ~grid ~target_density:0.9 in
      let nc = Design.num_cells d in
      let cx, cy = Pins.centers_of_design d in
      let run w =
        Pool.with_pool ~nworkers:w @@ fun pool ->
        let bp = Bell.par_create bell in
        let gx = Array.make nc 0.0 and gy = Array.make nc 0.0 in
        let v = Bell.par_value_grad bp pool ~cx ~cy ~gx ~gy in
        let v_only = Bell.par_value bp pool ~cx ~cy in
        v, v_only, gx, gy
      in
      let v1, vo1, gx1, gy1 = run 1 in
      check_float (dname ^ " value = value_grad value") v1 vo1;
      List.iter
        (fun w ->
          let v, vo, gx, gy = run w in
          let tag fmt = Printf.sprintf "%s w=%d %s" dname w fmt in
          check_float (tag "penalty") v1 v;
          check_float (tag "value") vo1 vo;
          check_bits (tag "gx") gx1 gx;
          check_bits (tag "gy") gy1 gy)
        worker_counts;
      (* the chunk-merged field must still agree with the serial kernel
         numerically (different summation order, same math) *)
      let v_serial = Bell.value bell ~cx ~cy in
      Alcotest.(check bool)
        (dname ^ " close to serial")
        true
        (abs_float (v1 -. v_serial) <= 1e-9 *. (1.0 +. abs_float v_serial)))
    (designs ())

(* ----- RUDY: bit-stable across worker counts ----- *)

let test_rudy_worker_count_independent () =
  List.iter
    (fun (dname, d) ->
      let pins = Pins.build d in
      let cx, cy = Pins.centers_of_design d in
      let r1 = Pool.with_pool ~nworkers:1 (fun pool -> Rudy.compute ~pool ~pins d ~cx ~cy) in
      List.iter
        (fun w ->
          let rw = Pool.with_pool ~nworkers:w (fun pool -> Rudy.compute ~pool ~pins d ~cx ~cy) in
          Alcotest.(check int) (dname ^ " nx") r1.Rudy.nx rw.Rudy.nx;
          Alcotest.(check int) (dname ^ " ny") r1.Rudy.ny rw.Rudy.ny;
          check_bits (Printf.sprintf "%s w=%d demand" dname w) r1.Rudy.demand rw.Rudy.demand)
        worker_counts;
      let serial = Rudy.compute ~pins d ~cx ~cy in
      Array.iteri
        (fun i v ->
          if not (abs_float (v -. serial.Rudy.demand.(i)) <= 1e-9 *. (1.0 +. abs_float v))
          then Alcotest.failf "%s demand[%d] far from serial" dname i)
        r1.Rudy.demand)
    (designs ())

(* ----- netbox: pooled build and audit bit-identical to serial ----- *)

let test_netbox_pooled_build_bit_exact () =
  List.iter
    (fun (dname, d) ->
      let pins = Pins.build d in
      let cx, cy = Pins.centers_of_design d in
      let nb = Netbox.build pins ~cx ~cy in
      List.iter
        (fun w ->
          Pool.with_pool ~nworkers:w @@ fun pool ->
          let nbp = Netbox.build ~pool pins ~cx ~cy in
          check_float (Printf.sprintf "%s w=%d total" dname w) (Netbox.total nb)
            (Netbox.total nbp);
          for n = 0 to Design.num_nets d - 1 do
            if Array.length (Design.net d n).Types.n_pins >= 2 then begin
              let a0, a1, a2, a3 = Netbox.net_box nb n in
              let b0, b1, b2, b3 = Netbox.net_box nbp n in
              check_float (Printf.sprintf "%s net %d xmin" dname n) a0 b0;
              check_float (Printf.sprintf "%s net %d xmax" dname n) a1 b1;
              check_float (Printf.sprintf "%s net %d ymin" dname n) a2 b2;
              check_float (Printf.sprintf "%s net %d ymax" dname n) a3 b3
            end
          done;
          Alcotest.(check int)
            (Printf.sprintf "%s w=%d pooled audit clean" dname w)
            0
            (List.length (Netbox.audit ~pool nbp)))
        worker_counts)
    (designs ())

(* ----- the batched gradient oracle ----- *)

let test_gradient_oracle_pooled () =
  let d = Tutil.random_design ~cells:30 ~nets:40 17 in
  let gamma = 2.0 in
  let serial = Check.gradient ~seed:5 ~gamma d in
  Alcotest.(check int) "serial oracle clean" 0 (List.length serial);
  List.iter
    (fun w ->
      Pool.with_pool ~nworkers:w @@ fun pool ->
      Alcotest.(check int)
        (Printf.sprintf "w=%d pooled oracle clean" w)
        0
        (List.length (Check.gradient ~pool ~seed:5 ~gamma d)))
    worker_counts

(* ----- end-to-end: same trajectory at -jobs 1 and -jobs 4 ----- *)

let e2e_cfg jobs =
  {
    Config.structure_aware with
    Config.gp_rounds = 4;
    gp_inner_iters = 15;
    detail_passes = 1;
    jobs;
  }

let test_flow_trajectory_jobs_independent () =
  let spec = Dpp_gen.Presets.scaled ~name:"par_e2e" ~seed:5 ~cells:220 ~dp_fraction:0.4 in
  let d = Dpp_gen.Compose.build spec in
  let r1 = Flow.run ~check:true d (e2e_cfg 1) in
  let r4 = Flow.run ~check:true d (e2e_cfg 4) in
  check_bits "final x" r1.Flow.design.Design.x r4.Flow.design.Design.x;
  check_bits "final y" r1.Flow.design.Design.y r4.Flow.design.Design.y;
  let gp_hpwl r =
    Array.of_list (List.map (fun (ri : Gp.round_info) -> ri.Gp.hpwl) r.Flow.trace)
  in
  check_bits "gp hpwl series" (gp_hpwl r1) (gp_hpwl r4);
  let stage_hpwl r =
    Array.of_list
      (List.map (fun (s : Trace.stage) -> s.Trace.hpwl_after) r.Flow.stage_trace)
  in
  check_bits "stage hpwl series" (stage_hpwl r1) (stage_hpwl r4);
  check_float "final hpwl" r1.Flow.hpwl_final r4.Flow.hpwl_final

(* ----- concurrent global placements ----- *)

let gp_cfg = { Gp.default_config with Gp.rounds = 5; inner_iters = 15 }

let run_gp d =
  let qp = Dpp_place.Qp.run d in
  let r = Gp.run ~pins:(Pins.build d) d gp_cfg ~cx:qp.Dpp_place.Qp.cx ~cy:qp.Dpp_place.Qp.cy in
  r.Gp.cx, r.Gp.cy

(* two domains place different designs at once, as two serve workers
   do: each run owns its working arrays, so both trajectories equal
   their serial references *)
let test_concurrent_gp_runs () =
  let d1 = Tutil.random_design ~cells:35 ~nets:45 11 in
  let d2 = Tutil.random_design ~cells:28 ~nets:36 13 in
  let rcx1, rcy1 = run_gp d1 and rcx2, rcy2 = run_gp d2 in
  let w1 = Domain.spawn (fun () -> run_gp d1) and w2 = Domain.spawn (fun () -> run_gp d2) in
  let cx1, cy1 = Domain.join w1 and cx2, cy2 = Domain.join w2 in
  check_bits "domain 1 cx" rcx1 cx1;
  check_bits "domain 1 cy" rcy1 cy1;
  check_bits "domain 2 cx" rcx2 cx2;
  check_bits "domain 2 cy" rcy2 cy2

(* ----- back-end stages: Legal + Detail + Flip, any worker count ----- *)

let test_backend_stages_worker_count_independent () =
  (* Flip mutates [orient] and the pin view, so each run gets a fresh
     design built from the same seed *)
  let run_backend w =
    let d = Tutil.random_design ~cells:60 ~nets:80 17 in
    let nc = Design.num_cells d in
    let cx = Array.init nc (fun i -> Design.cell_center_x d i) in
    let cy = Array.init nc (fun i -> Design.cell_center_y d i) in
    Pool.with_pool ~nworkers:w @@ fun pool ->
    let pins = Pins.build d in
    let legal = Dpp_place.Legal.run d ~pool ~soa:pins.Pins.soa ~cx ~cy () in
    let nb = Netbox.build pins ~cx:legal.Dpp_place.Legal.cx ~cy:legal.Dpp_place.Legal.cy in
    ignore (Dpp_place.Detail.run d ~pool ~max_passes:2 ~netbox:nb ~legal ());
    let stats = Dpp_place.Flip.run d ~pool ~netbox:nb () in
    ( Array.copy legal.Dpp_place.Legal.assignment,
      Array.copy legal.Dpp_place.Legal.cx,
      Array.copy legal.Dpp_place.Legal.cy,
      Array.copy d.Design.orient,
      stats.Dpp_place.Flip.flipped )
  in
  let a1, x1, y1, o1, f1 = run_backend 1 in
  List.iter
    (fun w ->
      let tag s = Printf.sprintf "w=%d %s" w s in
      let aw, xw, yw, ow, fw = run_backend w in
      Alcotest.(check bool) (tag "assignment") true (a1 = aw);
      check_bits (tag "cx") x1 xw;
      check_bits (tag "cy") y1 yw;
      Alcotest.(check bool) (tag "orient") true (o1 = ow);
      Alcotest.(check (list int)) (tag "flipped set") f1 fw)
    [ 2; 3; 8 ]

let suite =
  [
    Alcotest.test_case "chunk bounds partition" `Quick test_pool_chunks_partition;
    Alcotest.test_case "iter_chunks visits each index once" `Quick
      test_pool_iter_chunks_visits_once;
    Alcotest.test_case "run reaches every worker" `Quick test_pool_run_each_worker;
    Alcotest.test_case "pool width capped at chunk count" `Quick test_pool_width_capped;
    Alcotest.test_case "worker exceptions propagate" `Quick test_pool_propagates_exceptions;
    Alcotest.test_case "LSE kernels bit-exact vs serial" `Quick test_lse_kernels_bit_exact;
    Alcotest.test_case "bell kernels worker-count independent" `Quick
      test_bell_worker_count_independent;
    Alcotest.test_case "RUDY worker-count independent" `Quick
      test_rudy_worker_count_independent;
    Alcotest.test_case "netbox pooled build bit-exact" `Quick
      test_netbox_pooled_build_bit_exact;
    Alcotest.test_case "gradient oracle clean under pools" `Quick test_gradient_oracle_pooled;
    Alcotest.test_case "backend stages worker-count independent" `Quick
      test_backend_stages_worker_count_independent;
    Alcotest.test_case "flow trajectory independent of -jobs" `Slow
      test_flow_trajectory_jobs_independent;
    Alcotest.test_case "concurrent gp runs match serial" `Quick test_concurrent_gp_runs;
  ]
