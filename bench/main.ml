(* Benchmark harness: regenerates every table and figure of the
   (reconstructed) evaluation, plus the engine benchmarks behind the
   committed BENCH_*.json files.

     dune exec bench/main.exe            -- everything
     dune exec bench/main.exe -- -e T3   -- one experiment
     dune exec bench/main.exe -- -l      -- list experiment ids

   Experiment ids: T1 T2 T3 T4 T5 T6 F1 F2 F3 F4 F5 DP PAR LG ML RT XL SRV
   (see EXPERIMENTS.md). *)

module Experiment = Dpp_core.Experiment
module Series = Dpp_report.Series

let say fmt = Printf.printf (fmt ^^ "\n%!")

let rule () = say "%s" (String.make 78 '=')

(* ------------------------------------------------------------------ *)
(* Detailed-placement move-evaluation microbenchmark                   *)
(* ------------------------------------------------------------------ *)

(* the 2k-cell design the DP and PAR microbenchmarks share *)
let micro_design =
  lazy
    (let spec =
       Dpp_gen.Presets.scaled ~name:"micro" ~seed:42 ~cells:2000 ~dp_fraction:0.5
     in
     Dpp_gen.Compose.build spec)

(* Same candidate cross-row swaps evaluated two ways: the Netbox
   incremental delta (what Detail/Flip now run on) against the classical
   full rescan of every touched net.  Emits BENCH_detail.json. *)
let run_detail_bench () =
  let module Design = Dpp_netlist.Design in
  let module Types = Dpp_netlist.Types in
  let module Pins = Dpp_wirelen.Pins in
  let module Hpwl = Dpp_wirelen.Hpwl in
  let module Netbox = Dpp_wirelen.Netbox in
  let module Rng = Dpp_util.Rng in
  let d = Lazy.force micro_design in
  let pins = Pins.build d in
  let cx, cy = Pins.centers_of_design d in
  let legal = Dpp_place.Legal.run d ~soa:pins.Pins.soa ~cx ~cy () in
  let lcx = legal.Dpp_place.Legal.cx and lcy = legal.Dpp_place.Legal.cy in
  let movable = Design.movable_ids d in
  let nm = Array.length movable in
  let rng = Rng.create 7 in
  let n_cands = 40_000 in
  let cands =
    Array.init n_cands (fun _ ->
        movable.(Rng.int rng nm), movable.(Rng.int rng nm))
  in
  (* weighted rescan of the union of both cells' nets, before/after the
     staged swap — the pre-refactor Detail.local_hpwl evaluation *)
  let local i j =
    let seen = Hashtbl.create 16 in
    List.iter
      (fun c -> Dpp_netlist.Soa.iter_nets_of_cell pins.Pins.soa c (fun n -> Hashtbl.replace seen n ()))
      [ i; j ];
    Hashtbl.fold
      (fun n () acc ->
        acc +. ((Design.net d n).Types.n_weight *. Hpwl.net pins ~cx:lcx ~cy:lcy n))
      seen 0.0
  in
  let rescan_eval (i, j) =
    let before = local i j in
    let xi = lcx.(i) and yi = lcy.(i) and xj = lcx.(j) and yj = lcy.(j) in
    lcx.(i) <- xj;
    lcy.(i) <- yj;
    lcx.(j) <- xi;
    lcy.(j) <- yi;
    let after = local i j in
    lcx.(i) <- xi;
    lcy.(i) <- yi;
    lcx.(j) <- xj;
    lcy.(j) <- yj;
    after -. before
  in
  let nb = Netbox.build pins ~cx:lcx ~cy:lcy in
  let netbox_eval (i, j) =
    let xi = lcx.(i) and yi = lcy.(i) and xj = lcx.(j) and yj = lcy.(j) in
    Netbox.move_cell nb i xj yj;
    Netbox.move_cell nb j xi yi;
    let delta = Netbox.delta nb in
    Netbox.rollback nb;
    delta
  in
  (* the two evaluators must agree before timing means anything *)
  Array.iteri
    (fun k cand ->
      if k < 2_000 then begin
        let dr = rescan_eval cand and dn = netbox_eval cand in
        if abs_float (dr -. dn) > 1e-6 then begin
          say "DP: MISMATCH on candidate %d: rescan %.9f netbox %.9f" k dr dn;
          exit 1
        end
      end)
    cands;
  let time_evals eval =
    let t0 = Unix.gettimeofday () in
    let acc = ref 0.0 in
    Array.iter (fun cand -> acc := !acc +. eval cand) cands;
    let dt = Unix.gettimeofday () -. t0 in
    ignore !acc;
    float_of_int n_cands /. dt
  in
  (* warm up, then measure *)
  ignore (time_evals rescan_eval);
  ignore (time_evals netbox_eval);
  let rescan_rate = time_evals rescan_eval in
  let netbox_rate = time_evals netbox_eval in
  let speedup = netbox_rate /. rescan_rate in
  say "DP: %d swap evaluations on %s (%d cells, %d nets)" n_cands d.Design.name
    (Design.num_cells d) (Design.num_nets d);
  say "  rescan  %12.0f moves/sec" rescan_rate;
  say "  netbox  %12.0f moves/sec" netbox_rate;
  say "  speedup %12.2fx" speedup;
  let oc = open_out "BENCH_detail.json" in
  Printf.fprintf oc
    {|{"design":"%s","cells":%d,"nets":%d,"evals":%d,"rescan_moves_per_sec":%.0f,"netbox_moves_per_sec":%.0f,"speedup":%.3f}
|}
    d.Design.name (Design.num_cells d) (Design.num_nets d) n_cands rescan_rate netbox_rate
    speedup;
  close_out oc;
  say "  written BENCH_detail.json"

(* ------------------------------------------------------------------ *)
(* Domain-parallel kernel sweep                                        *)
(* ------------------------------------------------------------------ *)

(* The pooled cost kernels at 1/2/4/8 worker domains.  Before timing,
   the 4-domain LSE gradient is checked bit-for-bit against the serial
   kernel — a wrong parallel kernel benchmarked fast is worse than no
   benchmark.  Throughput numbers are whatever this machine gives
   (single-core containers show ~1x; the point of the sweep is the
   equivalence plus honest scaling data).  Emits BENCH_par.json. *)
let run_par_bench () =
  let module Design = Dpp_netlist.Design in
  let module Pins = Dpp_wirelen.Pins in
  let module Lse = Dpp_wirelen.Lse in
  let module Par_grad = Dpp_wirelen.Par_grad in
  let module Netbox = Dpp_wirelen.Netbox in
  let module Grid = Dpp_density.Grid in
  let module Bell = Dpp_density.Bell in
  let module Rudy = Dpp_congest.Rudy in
  let module Pool = Dpp_par.Pool in
  let d = Lazy.force micro_design in
  let pins = Pins.build d in
  let cx, cy = Pins.centers_of_design d in
  let n = Design.num_cells d in
  let gx = Array.make n 0.0 and gy = Array.make n 0.0 in
  let gx' = Array.make n 0.0 and gy' = Array.make n 0.0 in
  let nx, ny = Grid.default_dims d in
  let grid = Grid.build d ~nx ~ny in
  let bell = Bell.create d ~grid ~target_density:0.9 in
  (* equivalence gate: the pooled gradient at 4 domains vs the serial kernel *)
  Pool.with_pool ~nworkers:4 (fun pool ->
      let pg = Par_grad.create pool pins in
      let vs = Lse.value_grad pins ~gamma:5.0 ~cx ~cy ~gx ~gy in
      let vp = Par_grad.value_grad pg pool ~gamma:5.0 ~cx ~cy ~gx:gx' ~gy:gy' in
      let same =
        Float.equal vs vp && Array.for_all2 Float.equal gx gx' && Array.for_all2 Float.equal gy gy'
      in
      if not same then begin
        say "PAR: MISMATCH: LSE pooled gradient differs from serial";
        exit 1
      end);
  say "PAR: pooled LSE gradient bit-identical to serial at 4 domains";
  let rate f =
    f ();
    f ();
    let t0 = Unix.gettimeofday () in
    let iters = ref 0 in
    while Unix.gettimeofday () -. t0 < 0.4 do
      f ();
      incr iters
    done;
    float_of_int !iters /. (Unix.gettimeofday () -. t0)
  in
  let levels =
    List.map
      (fun jobs ->
        Pool.with_pool ~nworkers:jobs @@ fun pool ->
        let pg = Par_grad.create pool pins in
        let bp = Bell.par_create bell in
        let nb = Netbox.build ~pool pins ~cx ~cy in
        let lse =
          rate (fun () -> ignore (Par_grad.value_grad pg pool ~gamma:5.0 ~cx ~cy ~gx ~gy))
        in
        let bellr = rate (fun () -> ignore (Bell.par_value_grad bp pool ~cx ~cy ~gx ~gy)) in
        let rudy = rate (fun () -> ignore (Rudy.compute ~pool ~pins d ~cx ~cy)) in
        let audit = rate (fun () -> ignore (Netbox.audit ~pool nb)) in
        (* whether the gradient kernel's chunk loop ran inline (auto-serial
           fallback: one effective core, one worker, or tiny work) rather
           than fanning out to the worker domains *)
        let fallback = Pool.auto_serial pool ~n:(Design.num_nets d) in
        say "  jobs %d: lse %8.1f/s  bell %8.1f/s  rudy %8.1f/s  audit %8.1f/s%s" jobs lse bellr
          rudy audit
          (if fallback then "  [serial fallback]" else "");
        jobs, lse, bellr, rudy, audit, fallback)
      [ 1; 2; 4; 8 ]
  in
  let lse_at j =
    let _, lse, _, _, _, _ = List.find (fun (jobs, _, _, _, _, _) -> jobs = j) levels in
    lse
  in
  let speedup = lse_at 4 /. lse_at 1 in
  say "PAR: LSE gradient speedup at 4 domains vs 1: %.2fx (machine has %d core%s)" speedup
    (Domain.recommended_domain_count ())
    (if Domain.recommended_domain_count () = 1 then "" else "s");
  let oc = open_out "BENCH_par.json" in
  Printf.fprintf oc
    {|{"design":"%s","cells":%d,"nets":%d,"chunk_count":%d,"cores":%d,"levels":[%s],"grad_speedup_4v1":%.3f}
|}
    d.Design.name (Design.num_cells d) (Design.num_nets d) Pool.chunk_count
    (Domain.recommended_domain_count ())
    (String.concat ","
       (List.map
          (fun (jobs, lse, bellr, rudy, audit, fallback) ->
            Printf.sprintf
              {|{"jobs":%d,"lse_grad_per_sec":%.1f,"bell_grad_per_sec":%.1f,"rudy_per_sec":%.1f,"netbox_audit_per_sec":%.1f,"fallback":%b}|}
              jobs lse bellr rudy audit fallback)
          levels))
    speedup;
  close_out oc;
  say "  written BENCH_par.json"

(* ------------------------------------------------------------------ *)
(* Parallel legalization & detailed placement                          *)
(* ------------------------------------------------------------------ *)

(* Three measurements behind one bit-exactness gate. (1) The gate:
   Legal+Detail+Flip on a fresh design at 1/2/4/8 worker domains must
   produce identical assignment, coordinates and orientations — a wrong
   parallel stage benchmarked fast is worse than no benchmark. (2) The
   headline serial win: the move pass's gap queries through the sorted
   Occ index against the old per-row list walk (List.filter + re-sort on
   every accepted move), same operation stream, costs verified equal
   first. (3) The 1/2/4/8-domain sweep of the full stages. Emits
   BENCH_legal.json. *)
let run_legal_bench () =
  let module Design = Dpp_netlist.Design in
  let module Types = Dpp_netlist.Types in
  let module Pins = Dpp_wirelen.Pins in
  let module Netbox = Dpp_wirelen.Netbox in
  let module Rect = Dpp_geom.Rect in
  let module Pool = Dpp_par.Pool in
  let module Legal = Dpp_place.Legal in
  let module Occ = Dpp_place.Occ in
  let module Rng = Dpp_util.Rng in
  let build () =
    Dpp_gen.Compose.build
      (Dpp_gen.Presets.scaled ~name:"micro" ~seed:42 ~cells:2000 ~dp_fraction:0.5)
  in
  (* --- bit-exactness gate: the three stages across worker counts --- *)
  let backend jobs =
    let d = build () in
    let cx, cy = Pins.centers_of_design d in
    Pool.with_pool ~nworkers:jobs @@ fun pool ->
    let pins = Pins.build d in
    let legal = Legal.run d ~pool ~soa:pins.Pins.soa ~cx ~cy () in
    let nb = Netbox.build pins ~cx:legal.Legal.cx ~cy:legal.Legal.cy in
    ignore (Dpp_place.Detail.run d ~pool ~netbox:nb ~legal ());
    ignore (Dpp_place.Flip.run d ~pool ~netbox:nb ());
    legal.Legal.assignment, legal.Legal.cx, legal.Legal.cy, Array.copy d.Design.orient
  in
  let a1, x1, y1, o1 = backend 1 in
  List.iter
    (fun jobs ->
      let a, x, y, o = backend jobs in
      if
        not
          (a = a1
          && Array.for_all2 Float.equal x x1
          && Array.for_all2 Float.equal y y1
          && o = o1)
      then begin
        say "LG: MISMATCH: Legal+Detail+Flip at %d domains differs from 1" jobs;
        exit 1
      end)
    [ 2; 4; 8 ];
  say "LG: Legal+Detail+Flip bit-identical at 1/2/4/8 worker domains";
  (* --- occupancy: sorted index vs the old per-row list walk --- *)
  let d = build () in
  let soa = Dpp_netlist.Soa.of_design d in
  let cx, cy = Pins.centers_of_design d in
  let legal = Legal.run d ~soa ~cx ~cy () in
  let lcx = legal.Legal.cx in
  let die = d.Design.die in
  let nrows = d.Design.num_rows in
  let site = d.Design.site_width in
  let align v = die.Rect.xl +. (ceil (((v -. die.Rect.xl) /. site) -. 1e-9) *. site) in
  let movable =
    Array.to_list (Design.movable_ids d)
    |> List.filter (fun i ->
           legal.Legal.assignment.(i) >= 0
           && (Design.cell d i).Types.c_height <= d.Design.row_height +. 1e-9)
    |> Array.of_list
  in
  let rng = Rng.create 11 in
  let n_ops = 200_000 in
  let ops =
    Array.init n_ops (fun q ->
        let i = movable.(Rng.int rng (Array.length movable)) in
        let w = (Design.cell d i).Types.c_width in
        let tx =
          min (max (lcx.(i) +. Rng.float_in rng (-40.0 *. w) (40.0 *. w)) die.Rect.xl)
            die.Rect.xh
        in
        i, tx, Rng.int rng 3 - 1, q mod 4 = 0)
  in
  let width i = (Design.cell d i).Types.c_width in
  (* the old move_pass gap walk over a sorted (xl, xh, cell) list *)
  let list_best_gap rows r ~w ~tx =
    let cursor = ref die.Rect.xl in
    let best = ref None in
    let consider_gap lo hi =
      if hi -. lo >= w then begin
        let xl = align (min (max (tx -. (w /. 2.0)) lo) (hi -. w)) in
        if xl >= lo -. 1e-9 && xl +. w <= hi +. 1e-9 then begin
          let cand_cx = xl +. (w /. 2.0) in
          let cost = abs_float (cand_cx -. tx) in
          match !best with
          | Some (bc, _) when bc <= cost -> ()
          | Some _ | None -> best := Some (cost, cand_cx)
        end
      end
    in
    List.iter
      (fun (lo, hi, _) ->
        if lo > !cursor then consider_gap !cursor lo;
        cursor := max !cursor hi)
      rows.(r);
    if die.Rect.xh > !cursor then consider_gap !cursor die.Rect.xh;
    !best
  in
  let fresh_rows () =
    let occ = Occ.build ~soa d ~cx:lcx ~cy:legal.Legal.cy in
    Array.init nrows (Occ.row_entries occ)
  in
  let clamp_row r = max 0 (min (nrows - 1) r) in
  (* correctness first: both backends must price every op identically *)
  begin
    let rows = fresh_rows () in
    let occ = Occ.build ~soa d ~cx:lcx ~cy:legal.Legal.cy in
    let cur_row = Array.copy legal.Legal.assignment in
    Array.iteri
      (fun q (i, tx, dr, accept) ->
        let w = width i in
        let r = clamp_row (cur_row.(i) + dr) in
        let bl = list_best_gap rows r ~w ~tx in
        let bo = Occ.best_gap occ r ~w ~tx ~align in
        (match bl, bo with
        | None, None -> ()
        | Some (cl, _), Some (co, _) when Float.equal cl co -> ()
        | _ ->
          say "LG: MISMATCH: op %d list and indexed gap queries disagree" q;
          exit 1);
        match bo with
        | Some (_, cand_cx) when accept ->
          (* apply the same move to both so the states stay comparable *)
          let orow = cur_row.(i) in
          rows.(orow) <- List.filter (fun (_, _, c) -> c <> i) rows.(orow);
          rows.(r) <-
            List.sort compare
              ((cand_cx -. (w /. 2.0), cand_cx +. (w /. 2.0), i) :: rows.(r));
          Occ.remove occ ~row:orow ~cell:i;
          Occ.insert occ ~row:r ~cell:i ~xl:(cand_cx -. (w /. 2.0))
            ~xh:(cand_cx +. (w /. 2.0));
          cur_row.(i) <- r
        | Some _ | None -> ())
      ops;
    say "LG: list and indexed occupancy agree on all %d gap queries" n_ops
  end;
  let time_list () =
    let rows = fresh_rows () in
    let cur_row = Array.copy legal.Legal.assignment in
    let acc = ref 0.0 in
    let t0 = Unix.gettimeofday () in
    Array.iter
      (fun (i, tx, dr, accept) ->
        let w = width i in
        let r = clamp_row (cur_row.(i) + dr) in
        match list_best_gap rows r ~w ~tx with
        | Some (cost, cand_cx) ->
          acc := !acc +. cost;
          if accept then begin
            let orow = cur_row.(i) in
            rows.(orow) <- List.filter (fun (_, _, c) -> c <> i) rows.(orow);
            rows.(r) <-
              List.sort compare
                ((cand_cx -. (w /. 2.0), cand_cx +. (w /. 2.0), i) :: rows.(r));
            cur_row.(i) <- r
          end
        | None -> ())
      ops;
    ignore !acc;
    float_of_int n_ops /. (Unix.gettimeofday () -. t0)
  in
  let time_occ () =
    let occ = Occ.build ~soa d ~cx:lcx ~cy:legal.Legal.cy in
    let cur_row = Array.copy legal.Legal.assignment in
    let acc = ref 0.0 in
    let t0 = Unix.gettimeofday () in
    Array.iter
      (fun (i, tx, dr, accept) ->
        let w = width i in
        let r = clamp_row (cur_row.(i) + dr) in
        match Occ.best_gap occ r ~w ~tx ~align with
        | Some (cost, cand_cx) ->
          acc := !acc +. cost;
          if accept then begin
            Occ.remove occ ~row:cur_row.(i) ~cell:i;
            Occ.insert occ ~row:r ~cell:i ~xl:(cand_cx -. (w /. 2.0))
              ~xh:(cand_cx +. (w /. 2.0));
            cur_row.(i) <- r
          end
        | None -> ())
      ops;
    ignore !acc;
    float_of_int n_ops /. (Unix.gettimeofday () -. t0)
  in
  ignore (time_list ());
  ignore (time_occ ());
  let list_rate = time_list () in
  let occ_rate = time_occ () in
  let occ_speedup = occ_rate /. list_rate in
  say "LG: %d gap queries (1 in 4 accepted) on %s (%d rows)" n_ops d.Design.name nrows;
  say "  list     %12.0f ops/sec" list_rate;
  say "  indexed  %12.0f ops/sec" occ_rate;
  say "  speedup  %12.2fx" occ_speedup;
  (* --- the full stages at 1/2/4/8 worker domains --- *)
  let rate f =
    f ();
    let t0 = Unix.gettimeofday () in
    let iters = ref 0 in
    while Unix.gettimeofday () -. t0 < 0.4 do
      f ();
      incr iters
    done;
    float_of_int !iters /. (Unix.gettimeofday () -. t0)
  in
  let levels =
    List.map
      (fun jobs ->
        let d = build () in
        let cx, cy = Pins.centers_of_design d in
        Pool.with_pool ~nworkers:jobs @@ fun pool ->
        let pins = Pins.build d in
        let soa = pins.Pins.soa in
        let legal_rate = rate (fun () -> ignore (Legal.run d ~pool ~soa ~cx ~cy ())) in
        let legal = Legal.run d ~pool ~soa ~cx ~cy () in
        let nb = Netbox.build pins ~cx:legal.Legal.cx ~cy:legal.Legal.cy in
        let t0 = Unix.gettimeofday () in
        ignore (Dpp_place.Detail.run d ~pool ~netbox:nb ~legal ());
        let detail_s = Unix.gettimeofday () -. t0 in
        say "  jobs %d: legal %8.2f runs/s  detail %6.3f s" jobs legal_rate detail_s;
        jobs, legal_rate, detail_s)
      [ 1; 2; 4; 8 ]
  in
  let oc = open_out "BENCH_legal.json" in
  Printf.fprintf oc
    {|{"design":"%s","cells":%d,"nets":%d,"rows":%d,"occ_ops":%d,"occ_list_ops_per_sec":%.0f,"occ_indexed_ops_per_sec":%.0f,"occ_speedup":%.3f,"levels":[%s]}
|}
    d.Design.name (Design.num_cells d) (Design.num_nets d) nrows n_ops list_rate occ_rate
    occ_speedup
    (String.concat ","
       (List.map
          (fun (jobs, lr, ds) ->
            Printf.sprintf {|{"jobs":%d,"legal_runs_per_sec":%.2f,"detail_s":%.3f}|} jobs
              lr ds)
          levels));
  close_out oc;
  say "  written BENCH_legal.json"

(* ------------------------------------------------------------------ *)
(* Multilevel vs flat global placement                                 *)
(* ------------------------------------------------------------------ *)

(* Flat vs multilevel GP on the largest generated benchmark, behind two
   bit-determinism gates: the multilevel flow rerun at the same seed,
   and rerun at 4 worker domains, must both reproduce the exact final
   coordinates — a fast V-cycle that loses reproducibility is worse
   than no V-cycle.  Emits BENCH_ml.json. *)
let run_ml_bench () =
  let module Design = Dpp_netlist.Design in
  let module Flow = Dpp_core.Flow in
  let module Config = Dpp_core.Config in
  let module Trace = Dpp_report.Trace in
  let d =
    match Dpp_gen.Presets.by_name "dp_mix_l" with
    | Some spec -> Dpp_gen.Compose.build spec
    | None -> failwith "preset dp_mix_l missing"
  in
  let movables = Array.length (Design.movable_ids d) in
  say "ML: flat vs multilevel GP on %s (%d cells, %d movable)" d.Design.name
    (Design.num_cells d) movables;
  let cfg ml jobs = { Config.structure_aware with Config.multilevel = ml; jobs } in
  let gp_stage (r : Flow.result) =
    List.find (fun (s : Trace.stage) -> s.Trace.name = "gp") r.Flow.stage_trace
  in
  let gp_wall r = (gp_stage r).Trace.wall_s in
  let flat = Flow.run d (cfg Config.Ml_off 1) in
  let ml = Flow.run d (cfg Config.Ml_on 1) in
  let speedup = gp_wall flat /. gp_wall ml in
  let delta_pct =
    100.0 *. (ml.Flow.hpwl_final -. flat.Flow.hpwl_final) /. flat.Flow.hpwl_final
  in
  say "  flat: gp %6.2f s  HPWL %.0f" (gp_wall flat) flat.Flow.hpwl_final;
  say "  ml:   gp %6.2f s  HPWL %.0f" (gp_wall ml) ml.Flow.hpwl_final;
  say "  gp speedup %.2fx, final HPWL delta %+.2f%%" speedup delta_pct;
  let levels = (gp_stage ml).Trace.levels in
  List.iter
    (fun (l : Trace.level) ->
      say "    level %d: %5d movables  hpwl %12.0f  overflow %.3f  %.2f s" l.Trace.index
        l.Trace.movables l.Trace.hpwl l.Trace.overflow l.Trace.wall_s)
    levels;
  (* determinism gates *)
  let same (a : Flow.result) (b : Flow.result) =
    Array.for_all2 Float.equal a.Flow.design.Design.x b.Flow.design.Design.x
    && Array.for_all2 Float.equal a.Flow.design.Design.y b.Flow.design.Design.y
  in
  let rerun_ok = same ml (Flow.run d (cfg Config.Ml_on 1)) in
  let jobs_ok = same ml (Flow.run d (cfg Config.Ml_on 4)) in
  if not rerun_ok then say "ML: MISMATCH: rerun at the same seed diverged";
  if not jobs_ok then say "ML: MISMATCH: 4-domain run diverged from 1-domain";
  if rerun_ok && jobs_ok then
    say "ML: bit-identical across rerun and across 1 vs 4 worker domains";
  if speedup < 2.0 then
    say "ML: warning: gp speedup %.2fx below the 2x target on this machine" speedup;
  if abs_float delta_pct > 2.0 then
    say "ML: warning: HPWL delta %+.2f%% outside the 2%% band" delta_pct;
  let oc = open_out "BENCH_ml.json" in
  Printf.fprintf oc
    {|{"design":"%s","cells":%d,"movables":%d,"flat_gp_s":%.3f,"ml_gp_s":%.3f,"gp_speedup":%.3f,"flat_hpwl":%.1f,"ml_hpwl":%.1f,"hpwl_delta_pct":%.3f,"deterministic_rerun":%b,"deterministic_jobs_1v4":%b,"levels":[%s]}
|}
    d.Design.name (Design.num_cells d) movables (gp_wall flat) (gp_wall ml) speedup
    flat.Flow.hpwl_final ml.Flow.hpwl_final delta_pct rerun_ok jobs_ok
    (String.concat ","
       (List.map
          (fun (l : Trace.level) ->
            Printf.sprintf
              {|{"index":%d,"movables":%d,"hpwl":%.1f,"overflow":%.4f,"wall_s":%.3f}|}
              l.Trace.index l.Trace.movables l.Trace.hpwl l.Trace.overflow l.Trace.wall_s)
          levels));
  close_out oc;
  say "  written BENCH_ml.json";
  if not (rerun_ok && jobs_ok) then exit 1

(* ------------------------------------------------------------------ *)
(* Routability: congestion-driven GP tradeoff                          *)
(* ------------------------------------------------------------------ *)

(* Congestion-blind vs congestion-steered placement on two designs: the
   rt_channel stress preset (a cell-free routing channel that the blind
   flow floods with crossing-net demand) and the big mixed datapath
   benchmark.  The steered run must hold two quality gates on the
   channel — ACE congestion down at least 20%, HPWL up at most 2% — and
   two hard determinism gates: the steered trajectory rerun at the same
   seed, and rerun at 4 worker domains, must reproduce the exact final
   coordinates.  Emits BENCH_rt.json. *)
let run_rt_bench () =
  let module Design = Dpp_netlist.Design in
  let module Flow = Dpp_core.Flow in
  let module Config = Dpp_core.Config in
  let module Rudy = Dpp_congest.Rudy in
  let row name (d : Design.t) base =
    let cfg rt jobs = { base with Config.routability = rt; jobs } in
    let off = Flow.run d (cfg false 1) in
    let on = Flow.run d (cfg true 1) in
    let ace (r : Flow.result) = r.Flow.congestion.Rudy.ace_ratio in
    let reduction = 100.0 *. (1.0 -. (ace on /. ace off)) in
    let hpwl_delta =
      100.0 *. (on.Flow.hpwl_final -. off.Flow.hpwl_final) /. off.Flow.hpwl_final
    in
    say "  %-10s off: ACE %.3f  max %.3f  HPWL %12.0f  Steiner %12.0f" name (ace off)
      off.Flow.congestion.Rudy.max_ratio off.Flow.hpwl_final off.Flow.steiner_final;
    say "  %-10s on:  ACE %.3f  max %.3f  HPWL %12.0f  Steiner %12.0f  (%d steering updates)"
      name (ace on) on.Flow.congestion.Rudy.max_ratio on.Flow.hpwl_final
      on.Flow.steiner_final
      (List.length on.Flow.rt_trace);
    say "  %-10s ACE reduction %.1f%%, HPWL delta %+.2f%%" name reduction hpwl_delta;
    let same (a : Flow.result) (b : Flow.result) =
      Array.for_all2 Float.equal a.Flow.design.Design.x b.Flow.design.Design.x
      && Array.for_all2 Float.equal a.Flow.design.Design.y b.Flow.design.Design.y
    in
    let rerun_ok = same on (Flow.run d (cfg true 1)) in
    let jobs_ok = same on (Flow.run d (cfg true 4)) in
    if not rerun_ok then say "RT: MISMATCH: %s steered rerun diverged" name;
    if not jobs_ok then say "RT: MISMATCH: %s 4-domain steered run diverged" name;
    let json =
      Printf.sprintf
        {|{"design":"%s","cells":%d,"off_ace":%.4f,"off_max":%.4f,"off_hpwl":%.1f,"off_steiner":%.1f,"on_ace":%.4f,"on_max":%.4f,"on_hpwl":%.1f,"on_steiner":%.1f,"steering_updates":%d,"ace_reduction_pct":%.2f,"hpwl_delta_pct":%.3f,"deterministic_rerun":%b,"deterministic_jobs_1v4":%b}|}
        name (Design.num_cells d) (ace off) off.Flow.congestion.Rudy.max_ratio
        off.Flow.hpwl_final off.Flow.steiner_final (ace on)
        on.Flow.congestion.Rudy.max_ratio on.Flow.hpwl_final on.Flow.steiner_final
        (List.length on.Flow.rt_trace)
        reduction hpwl_delta rerun_ok jobs_ok
    in
    json, reduction, hpwl_delta, rerun_ok && jobs_ok
  in
  let channel = Dpp_gen.Channel.build () in
  say "RT: congestion-blind vs congestion-steered placement";
  let j_ch, red_ch, dh_ch, det_ch =
    row "rt_channel" channel { Config.baseline with Config.multilevel = Config.Ml_off }
  in
  let dp =
    match Dpp_gen.Presets.by_name "dp_mix_l" with
    | Some spec -> Dpp_gen.Compose.build spec
    | None -> failwith "preset dp_mix_l missing"
  in
  let j_dp, _, _, det_dp = row "dp_mix_l" dp Config.structure_aware in
  (* quality gates apply to the channel preset, where congestion is the
     designed failure mode; on dp_mix_l the tradeoff is only reported *)
  if red_ch < 20.0 then
    say "RT: warning: channel ACE reduction %.1f%% below the 20%% target" red_ch;
  if dh_ch > 2.0 then
    say "RT: warning: channel HPWL delta %+.2f%% above the 2%% band" dh_ch;
  if det_ch && det_dp then
    say "RT: steered runs bit-identical across rerun and across 1 vs 4 worker domains";
  let oc = open_out "BENCH_rt.json" in
  Printf.fprintf oc {|{"rows":[%s,%s]}
|} j_ch j_dp;
  close_out oc;
  say "  written BENCH_rt.json";
  if not (det_ch && det_dp) then exit 1

(* ------------------------------------------------------------------ *)
(* XL scaling: the flat SoA core against the record kernels            *)
(* ------------------------------------------------------------------ *)

(* Kernel sweep over the XL preset family (10k .. 1m cells), behind
   two gates per size: (1) every SoA kernel — the LSE gradient, HPWL,
   serial bell density, serial RUDY, the net-box cache — must be
   bit-identical to the preserved record-path implementation in
   Dpp_refkernels; (2) the pooled kernels at 2 and 4 worker domains
   must be bit-identical to themselves at 1.  Only then are wall-clock,
   max-RSS (VmHWM) and Gc heap recorded, plus one full flow at 100k, a
   streaming-parse allocation note, and a PEKO run reporting the
   absolute optimality gap.  After the sweep, each size times the flow's
   extraction ([Slicer.run] and the ground-truth comparison) as
   [extract_s], the input of dpp_perfguard's scaling leg.  Emits
   BENCH_xl.json. *)
let run_xl_bench () =
  let module Design = Dpp_netlist.Design in
  let module Soa = Dpp_netlist.Soa in
  let module Bookshelf = Dpp_netlist.Bookshelf in
  let module Pins = Dpp_wirelen.Pins in
  let module Lse = Dpp_wirelen.Lse in
  let module Hpwl = Dpp_wirelen.Hpwl in
  let module Par_grad = Dpp_wirelen.Par_grad in
  let module Netbox = Dpp_wirelen.Netbox in
  let module Grid = Dpp_density.Grid in
  let module Bell = Dpp_density.Bell in
  let module Rudy = Dpp_congest.Rudy in
  let module Pool = Dpp_par.Pool in
  let module R = Dpp_refkernels.Record_path in
  let module Flow = Dpp_core.Flow in
  let module Config = Dpp_core.Config in
  let module Slicer = Dpp_extract.Slicer in
  let module Exmetrics = Dpp_extract.Exmetrics in
  (* The sweep's per-size top-heap mark is a committed, gated number:
     cap the major heap's growth headroom so the mark tracks the live
     set instead of the default 120% free-space slack.  Wall times are
     unaffected where it matters — every timed kernel runs after its
     own full-major settle in [best]. *)
  Gc.set { (Gc.get ()) with Gc.space_overhead = 80 };
  let sec f =
    let t0 = Unix.gettimeofday () in
    f ();
    Unix.gettimeofday () -. t0
  in
  let best f =
    (* settle the heap first so one kernel's garbage doesn't bill the next *)
    Gc.full_major ();
    ignore (sec f);
    let a = sec f in
    let b = sec f in
    min a b
  in
  let eq_arr a b = Array.for_all2 Float.equal a b in
  let gate name ok =
    if not ok then begin
      say "XL: MISMATCH: %s" name;
      exit 1
    end
  in
  (* DPP_XL_MAX caps the sweep (and skips the xl1m flow below it) so CI's
     gating job can stop at 250k while the nightly/full run — and the
     committed BENCH_xl.json — covers the million-cell presets *)
  let all_sizes = [ "xl10k"; "xl25k"; "xl100k"; "xl250k"; "xl500k"; "xl1m" ] in
  let sizes =
    match Sys.getenv_opt "DPP_XL_MAX" with
    | None -> all_sizes
    | Some cap ->
      let rec take = function
        | [] -> []
        | s :: rest -> if s = cap then [ s ] else s :: take rest
      in
      take all_sizes
  in
  let gamma = 5.0 in
  let rows =
    List.map
      (fun name ->
        (* return the previous size's garbage to the OS before this size
           allocates, so the monotone top-heap / VmHWM marks sampled at
           the end of the row are this size's own working set, not the
           sweep's accumulation *)
        Gc.compact ();
        let t0 = Unix.gettimeofday () in
        let d = Option.get (Dpp_gen.Xl.by_name ~seed:1 name) in
        let gen_s = Unix.gettimeofday () -. t0 in
        let derive_s = sec (fun () -> ignore (Soa.of_design d)) in
        let pins = Pins.build d in
        let cx, cy = Pins.centers_of_design d in
        let n = Design.num_cells d in
        let gx = Array.make n 0.0 and gy = Array.make n 0.0 in
        let gx' = Array.make n 0.0 and gy' = Array.make n 0.0 in
        let rp = R.Rpins.build d in
        let nx, ny = Grid.default_dims d in
        let grid = Grid.build d ~nx ~ny in
        let bell = Bell.of_soa pins.Pins.soa ~grid ~target_density:0.9 in
        let rbell = R.Rbell.create d ~grid ~target_density:0.9 in
        (* --- gate 1: SoA kernels bit-identical to the record path --- *)
        gate
          (name ^ ": hpwl")
          (Float.equal (Hpwl.total pins ~cx ~cy) (R.hpwl_total rp ~cx ~cy));
        let grad_pair soa_f ref_f =
          Array.fill gx 0 n 0.0;
          Array.fill gy 0 n 0.0;
          Array.fill gx' 0 n 0.0;
          Array.fill gy' 0 n 0.0;
          let vs = soa_f ~gx ~gy in
          let vr = ref_f ~gx:gx' ~gy:gy' in
          Float.equal vs vr && eq_arr gx gx' && eq_arr gy gy'
        in
        gate
          (name ^ ": lse gradient")
          (grad_pair
             (fun ~gx ~gy -> Lse.value_grad pins ~gamma ~cx ~cy ~gx ~gy)
             (fun ~gx ~gy -> R.lse_value_grad rp ~gamma ~cx ~cy ~gx ~gy));
        gate
          (name ^ ": bell gradient")
          (grad_pair
             (fun ~gx ~gy -> Bell.value_grad bell ~cx ~cy ~gx ~gy)
             (fun ~gx ~gy -> R.Rbell.value_grad rbell ~cx ~cy ~gx ~gy));
        let rd = Rudy.compute ~pins ~nx ~ny d ~cx ~cy in
        let rr = R.rudy rp ~nx ~ny ~cx ~cy in
        gate (name ^ ": rudy demand map") (eq_arr rd.Rudy.demand rr);
        let nb = Netbox.build pins ~cx ~cy in
        let boxes_ok = ref true in
        for net = 0 to Design.num_nets d - 1 do
          let a0, a1, a2, a3 = Netbox.net_box nb net in
          let b0, b1, b2, b3 = R.net_box rp ~cx ~cy net in
          if
            not
              (Float.equal a0 b0 && Float.equal a1 b1 && Float.equal a2 b2
             && Float.equal a3 b3)
          then boxes_ok := false
        done;
        gate (name ^ ": net boxes") !boxes_ok;
        (* --- gate 2: pooled kernels bit-stable across worker counts --- *)
        let pooled jobs =
          (* each run rebuilds the pooled netbox and RUDY stores; collect
             the previous run's before stacking the next on the heap peak *)
          Gc.full_major ();
          Pool.with_pool ~nworkers:jobs @@ fun pool ->
          let pg = Par_grad.create pool pins in
          Array.fill gx 0 n 0.0;
          Array.fill gy 0 n 0.0;
          let v = Par_grad.value_grad pg pool ~gamma ~cx ~cy ~gx ~gy in
          let bp = Bell.par_create bell in
          Array.fill gx' 0 n 0.0;
          Array.fill gy' 0 n 0.0;
          let bv = Bell.par_value_grad bp pool ~cx ~cy ~gx:gx' ~gy:gy' in
          let rdp = Rudy.compute ~pool ~pins ~nx ~ny d ~cx ~cy in
          let nbp = Netbox.build ~pool pins ~cx ~cy in
          v, Array.copy gx, Array.copy gy, bv, Array.copy gx', Array.copy gy',
          rdp.Rudy.demand, Netbox.total nbp
        in
        let v1, px1, py1, b1, bx1, by1, rd1, nt1 = pooled 1 in
        List.iter
          (fun jobs ->
            let v, px, py, bv, bx, by, rdj, nt = pooled jobs in
            gate
              (Printf.sprintf "%s: jobs 1 vs %d" name jobs)
              (Float.equal v1 v && eq_arr px1 px && eq_arr py1 py
             && Float.equal b1 bv && eq_arr bx1 bx && eq_arr by1 by
             && eq_arr rd1 rdj && Float.equal nt1 nt))
          [ 2; 4 ];
        gate
          (name ^ ": pooled netbox vs serial build")
          (Float.equal nt1 (Netbox.total nb));
        (* --- only now: timings --- *)
        let clear () =
          Array.fill gx 0 n 0.0;
          Array.fill gy 0 n 0.0
        in
        let kernels =
          [
            ( "lse_grad",
              (fun () -> clear (); ignore (Lse.value_grad pins ~gamma ~cx ~cy ~gx ~gy)),
              fun () -> clear (); ignore (R.lse_value_grad rp ~gamma ~cx ~cy ~gx ~gy) );
            ( "hpwl",
              (fun () -> ignore (Hpwl.total pins ~cx ~cy)),
              fun () -> ignore (R.hpwl_total rp ~cx ~cy) );
            ( "bell_grad",
              (fun () -> clear (); ignore (Bell.value_grad bell ~cx ~cy ~gx ~gy)),
              fun () -> clear (); ignore (R.Rbell.value_grad rbell ~cx ~cy ~gx ~gy) );
            ( "rudy",
              (fun () -> ignore (Rudy.compute ~pins ~nx ~ny d ~cx ~cy)),
              fun () -> ignore (R.rudy rp ~nx ~ny ~cx ~cy) );
            (* netbox is gated above but not timed here: Netbox.build
               constructs the whole incremental cache, which has no
               record-path counterpart cheaper than a bare rescan *)
          ]
        in
        let timed =
          List.map
            (fun (kname, soa_f, ref_f) ->
              let ts = best soa_f in
              let tr = best ref_f in
              kname, ts, tr)
            kernels
        in
        let heap = (Gc.stat ()).Gc.top_heap_words * (Sys.word_size / 8) / 1024 in
        let hwm = Dpp_util.Meminfo.vm_hwm_kb () in
        say "  %-7s %7d cells %7d nets: soa derive %6.3f s, peak rss %d MB" name
          (Design.num_cells d) (Design.num_nets d) derive_s (hwm / 1024);
        List.iter
          (fun (kname, ts, tr) ->
            say "    %-13s soa %8.4f s  record %8.4f s  %5.2fx" kname ts tr (tr /. ts))
          timed;
        ( name,
          Design.num_cells d,
          Design.num_nets d,
          Design.num_pins d,
          gen_s,
          derive_s,
          timed,
          hwm,
          heap ))
      sizes
  in
  say "XL: all SoA kernels bit-identical to the record path on %s"
    (String.concat ", " sizes);
  say "XL: pooled kernels bit-stable at 1/2/4 worker domains on every size";
  (* --- extraction as the flow's extract stage runs it, per size ---
     timed only once every size's memory marks are sampled: VmHWM and
     top-heap are process-monotone, so an extraction inside the sweep
     would lift the next size's marks *)
  let extract_s =
    List.map
      (fun name ->
        Gc.compact ();
        let d = Option.get (Dpp_gen.Xl.by_name ~seed:1 name) in
        let s =
          best (fun () ->
              let r = Slicer.run d Slicer.default_config in
              ignore (Exmetrics.compare_to_truth ~truth:d.Design.groups ~found:r.Slicer.groups))
        in
        say "  %-7s extract (Slicer.run + compare_to_truth) %7.3f s" name s;
        s)
      sizes
  in
  (* per-stage memory ledger entries for the flow JSON objects: wall
     clock plus the VmHWM / top-heap marks each Trace.stage recorded *)
  let module Trace = Dpp_report.Trace in
  let stage_json (st : Trace.stage) =
    Printf.sprintf {|{"stage":"%s","s":%.2f,"vm_hwm_kb":%d,"heap_kb":%d}|} st.Trace.name
      st.Trace.wall_s st.Trace.vm_hwm_kb st.Trace.heap_kb
  in
  let say_stage (st : Trace.stage) =
    say "    %-8s %8.2f s  hwm %8.1f MB  heap %8.1f MB" st.Trace.name st.Trace.wall_s
      (float_of_int st.Trace.vm_hwm_kb /. 1024.)
      (float_of_int st.Trace.heap_kb /. 1024.)
  in
  (* --- full flows, each in a fresh child process ---
     VmHWM and top-heap are process-monotone, and the major-GC pacing the
     pooled sweep's domain spawn/join churn leaves behind balloons a
     subsequent in-process flow's heap several-fold (same allocation
     totals, far fewer major slices; Gc.compact does not reset it).
     Shelling out to dpp_place gives every flow a pristine process, so
     the ledgered per-stage marks are the flow's own.  On a preset,
     [--multilevel --jobs 1] is exactly the bench flow config below —
     verified bit-identical by final HPWL. *)
  let dpp_place_exe =
    (* the bench runs as _build/default/bench/main.exe; the placer
       binary is its sibling under bin/ *)
    Filename.concat
      (Filename.dirname (Filename.dirname Sys.executable_name))
      (Filename.concat "bin" "dpp_place.exe")
  in
  let flow_in_child preset =
    let tracef = Filename.temp_file "dpp_flow_" ".trace.json" in
    let cmd =
      Printf.sprintf "%s --preset %s --multilevel --jobs 1 --trace %s > /dev/null"
        (Filename.quote dpp_place_exe) (Filename.quote preset) (Filename.quote tracef)
    in
    let rc = Sys.command cmd in
    if rc <> 0 then begin
      Printf.eprintf "XL: flow child for %s exited %d (%s)\n%!" preset rc cmd;
      exit 1
    end;
    let ic = open_in tracef in
    let body = really_input_string ic (in_channel_length ic) in
    close_in ic;
    Sys.remove tracef;
    match Dpp_report.Json.parse body with
    | Dpp_report.Json.Arr (run :: _) -> Trace.of_json run
    | _ -> failwith "flow child wrote no trace run"
  in
  let final_of (tr : Trace.t) =
    match List.rev tr.Trace.stages with
    | last :: _ -> last
    | [] -> failwith "flow child trace has no stages"
  in
  (* cell counts come from the sweep rows when available so the parent
     never has to materialize the design a second time (at 1M cells the
     regeneration alone would shift the parent's own RSS baseline) *)
  let cells_of name =
    match List.find_opt (fun (n, _, _, _, _, _, _, _, _) -> n = name) rows with
    | Some (_, cells, _, _, _, _, _, _, _) -> cells
    | None -> Design.num_cells (Option.get (Dpp_gen.Xl.by_name ~seed:1 name))
  in
  (* --- one full flow at 100k --- *)
  let cfg = { Config.structure_aware with Config.multilevel = Config.Ml_on; jobs = 1 } in
  let ftr = flow_in_child "xl100k" in
  let flow_s = ftr.Trace.total_s in
  let flow_hpwl = (final_of ftr).Trace.hpwl_after in
  let flow_cells = cells_of "xl100k" in
  say "XL: full flow on xl100k (%d cells): %.1f s, final HPWL %.0f" flow_cells flow_s
    flow_hpwl;
  List.iter say_stage ftr.Trace.stages;
  (* --- streaming parse: wall-clock and allocation of Bookshelf.read ---
     runs after the xl100k flow on purpose: the reader's transient peak
     tops 1 GB, and the process-monotone VmHWM / top-heap marks in the
     flow's stage ledger must reflect the flow, not the parse apparatus
     (the xl1m flow below dwarfs the parse peak either way) *)
  let tmp = Filename.concat (Filename.get_temp_dir_name ()) "dpp_xl_parse" in
  let parse_design = "xl100k" in
  let pd = Option.get (Dpp_gen.Xl.by_name ~seed:1 parse_design) in
  Bookshelf.write pd ~basename:tmp;
  Gc.compact ();
  let s0 = Gc.stat () in
  let t0 = Unix.gettimeofday () in
  let pd' = Bookshelf.read ~basename:tmp in
  let read_s = Unix.gettimeofday () -. t0 in
  let s1 = Gc.stat () in
  (* minor + major - promoted: a promoted word is counted once, as in
     test_bookshelf's bound and perfbench's netlist.read_mwords *)
  let words (s : Gc.stat) = s.Gc.minor_words +. s.Gc.major_words -. s.Gc.promoted_words in
  let parse_mwords = (words s1 -. words s0) /. 1e6 in
  let parse_words_per_pin =
    parse_mwords *. 1e6 /. float_of_int (Design.num_pins pd')
  in
  List.iter (Sys.remove)
    (List.filter Sys.file_exists
       (List.map (fun e -> tmp ^ e) [ ".aux"; ".nodes"; ".nets"; ".pl"; ".scl"; ".masters"; ".groups" ]));
  say "XL: streaming Bookshelf.read of %s: %.2f s, %.1f Mwords allocated (%.0f words/pin)"
    parse_design read_s parse_mwords parse_words_per_pin;
  (* --- the million-cell flow: wall clock + peak RSS, end to end --- *)
  let flow_xl1m_json =
    if not (List.mem "xl1m" sizes) then "null"
    else begin
      let mtr = flow_in_child "xl1m" in
      let mlast = final_of mtr in
      let mcells = cells_of "xl1m" in
      say "XL: full flow on xl1m (%d cells): %.1f s, final HPWL %.0f, peak rss %d MB" mcells
        mtr.Trace.total_s mlast.Trace.hpwl_after
        (mlast.Trace.vm_hwm_kb / 1024);
      List.iter say_stage mtr.Trace.stages;
      Printf.sprintf
        {|{"design":"xl1m","cells":%d,"wall_s":%.2f,"hpwl":%.1f,"vm_hwm_kb":%d,"stages":[%s]}|}
        mcells mtr.Trace.total_s mlast.Trace.hpwl_after mlast.Trace.vm_hwm_kb
        (String.concat "," (List.map stage_json mtr.Trace.stages))
    end
  in
  (* --- PEKO: absolute optimality gap ---
     Flat GP: a PEKO netlist is fully disconnected (nets are cell-disjoint
     by construction), which degenerates the multilevel coarsening — the
     V-cycle merges each net-clique into one cluster and the refinement
     has nothing left to pull on (33.8x the optimum where flat GP reaches
     2.24x on the same instance). *)
  let peko_cells = 10_000 in
  let pk, pk_opt = Dpp_gen.Peko.build ~name:"peko10k" ~cells:peko_cells () in
  let flat_cfg = { cfg with Config.multilevel = Config.Ml_off } in
  let t0 = Unix.gettimeofday () in
  let pr = Flow.run pk flat_cfg in
  let peko_s = Unix.gettimeofday () -. t0 in
  let gap_pct = 100.0 *. ((pr.Flow.hpwl_final /. pk_opt) -. 1.0) in
  say "XL: PEKO %d cells: optimal %.0f, flow %.0f, gap %+.1f%% (%.1f s)"
    (Design.num_cells pk) pk_opt pr.Flow.hpwl_final gap_pct peko_s;
  (* --- JSON --- *)
  let largest, _, _, _, _, _, largest_timed, _, _ = List.nth rows (List.length rows - 1) in
  let oc = open_out "BENCH_xl.json" in
  Printf.fprintf oc
    {|{"sizes":[%s],"speedup_at_largest":{"size":"%s",%s},"determinism":{"jobs":[1,2,4],"bit_identical":true},"parse":{"design":"%s","read_s":%.3f,"alloc_mwords":%.1f,"words_per_pin":%.1f,"reader":"streaming"},"flow":{"design":"xl100k","cells":%d,"wall_s":%.2f,"hpwl":%.1f,"stages":[%s]},"flow_xl1m":%s,"peko":{"cells":%d,"optimal_hpwl":%.1f,"flow_hpwl":%.1f,"gap_pct":%.2f,"wall_s":%.2f}}
|}
    (String.concat ","
       (List.map2
          (fun (name, cells, nets, npins, gen_s, derive_s, timed, hwm, heap) extract_s ->
            Printf.sprintf
              {|{"name":"%s","cells":%d,"nets":%d,"pins":%d,"gen_s":%.3f,"soa_derive_s":%.3f,"vm_hwm_kb":%d,"top_heap_kb":%d,"extract_s":%.4f,"kernels":{%s}}|}
              name cells nets npins gen_s derive_s hwm heap extract_s
              (String.concat ","
                 (List.map
                    (fun (kname, ts, tr) ->
                      Printf.sprintf
                        {|"%s":{"soa_s":%.4f,"record_s":%.4f,"speedup":%.3f}|} kname ts
                        tr (tr /. ts))
                    timed)))
          rows extract_s))
    largest
    (String.concat ","
       (List.map
          (fun (kname, ts, tr) -> Printf.sprintf {|"%s":%.3f|} kname (tr /. ts))
          largest_timed))
    parse_design read_s parse_mwords parse_words_per_pin flow_cells flow_s flow_hpwl
    (String.concat "," (List.map stage_json ftr.Trace.stages))
    flow_xl1m_json
    (Design.num_cells pk) pk_opt pr.Flow.hpwl_final gap_pct peko_s;
  close_out oc;
  say "  written BENCH_xl.json"

(* ------------------------------------------------------------------ *)
(* Placement as a service: job throughput + incremental-ECO latency    *)
(* ------------------------------------------------------------------ *)

(* Drives the dpp_serve stack in-process (Server.submit_request — the
   same path the socket handler takes, minus the framing).  Two parts:

   - throughput: a batch of full placement jobs through the scheduler at
     1/2/4 worker domains, reported as jobs/sec per concurrency level;
   - incremental ECO: against a placed dp_mix_l base, a seeded edit list
     disturbing a few percent of the movables is re-placed through
     Eco_submit with the stage oracles on ([check]) and the clean-region
     bit-equality gate on ([verify]) — a Failed verdict fails the bench —
     and its warm wall time is compared with the from-scratch flow on
     the same base spec.  The ~3x speedup is a target (machine
     dependent, warning only); the equality/oracle gates are hard.

   Emits BENCH_srv.json. *)
let run_srv_bench () =
  let module P = Dpp_serve.Protocol in
  let module Server = Dpp_serve.Server in
  let collector () =
    let m = Mutex.create () in
    let all = ref [] in
    let push r = Mutex.protect m (fun () -> all := r :: !all) in
    let get () = Mutex.protect m (fun () -> List.rev !all) in
    push, get
  in
  let fast_spec ?check ?out ~seed name =
    {
      (P.spec ?check ?out (P.Preset { name; seed })) with
      P.gp_rounds = Some 6;
      gp_inner_iters = Some 15;
      detail_passes = Some 1;
    }
  in
  let submit_all t reqs push =
    List.iter
      (fun req ->
        match Server.submit_request t req ~reply_fn:push with
        | `Queued _ -> ()
        | `Busy -> failwith "SRV: queue refused a bench job")
      reqs
  in
  let finished get =
    List.filter_map
      (function
        | P.Done _ as r -> Some r
        | P.Failed { job; reason } -> failwith (Printf.sprintf "SRV: job %d failed: %s" job reason)
        | _ -> None)
      (get ())
  in
  (* --- throughput at 1/2/4 concurrent clients --- *)
  let njobs = 8 in
  let cores = Domain.recommended_domain_count () in
  say "SRV: %d placement jobs (dp_mix_s, short flow) through the scheduler" njobs;
  say "  host parallelism: %d (above it, extra clients only add GC synchronization)" cores;
  let throughput =
    List.map
      (fun clients ->
        let t =
          Server.create ~cfg:{ Server.default_cfg with Server.workers = clients; queue = 32 } ()
        in
        let push, get = collector () in
        let reqs =
          List.init njobs (fun i -> P.Submit (fast_spec ~seed:(100 + i) "dp_mix_s"))
        in
        let t0 = Unix.gettimeofday () in
        submit_all t reqs push;
        Server.drain t;
        let wall = Unix.gettimeofday () -. t0 in
        Server.shutdown t;
        if Server.alive_workers t <> 0 then failwith "SRV: orphaned worker domains";
        let done_ = List.length (finished get) in
        if done_ <> njobs then
          failwith (Printf.sprintf "SRV: %d of %d jobs finished" done_ njobs);
        let jps = float_of_int njobs /. wall in
        say "  %d client%s: %2d jobs in %6.2f s  ->  %5.2f jobs/s" clients
          (if clients = 1 then " " else "s")
          njobs wall jps;
        clients, wall, jps)
      [ 1; 2; 4 ]
  in
  (* --- incremental ECO vs from-scratch, equality- and oracle-gated ---
     The gate runs the ECO with the stage oracles (check) and the
     clean-region bit-equality (verify) on; the timed runs place the same
     base with check off, so the latency is the op's, not the oracles'. *)
  let t = Server.create ~cfg:{ Server.default_cfg with Server.workers = 1 } () in
  let run_one label req =
    let push, get = collector () in
    submit_all t [ req ] push;
    Server.drain t;
    match finished get with
    | [ P.Done { wall_s; hpwl; eco; _ } ] -> wall_s, hpwl, eco
    | rs -> failwith (Printf.sprintf "SRV: %s: expected one Done, got %d" label (List.length rs))
  in
  let eco base =
    P.Eco_submit
      { base; edits = P.Random_edits { ops = 2; seed = 7 }; threshold = None; verify = true }
  in
  let gated = fast_spec ~check:true ~seed:1 "dp_mix_l" in
  ignore (run_one "gated base" (P.Submit gated));
  let _, gated_hpwl, _ = run_one "gated eco" (eco gated) in
  (* a cold submit places and caches the base; a second submit is the
     honest from-scratch cost of the same spec (warm extraction cache) *)
  let timed = fast_spec ~seed:1 "dp_mix_l" in
  ignore (run_one "base" (P.Submit timed));
  let full_wall, _, _ = run_one "full" (P.Submit timed) in
  let eco_wall, eco_hpwl, eco_summary = run_one "eco" (eco timed) in
  Server.shutdown t;
  if not (Float.equal gated_hpwl eco_hpwl) then
    failwith
      (Printf.sprintf "SRV: the checked ECO gives HPWL %.17g, the timed one %.17g" gated_hpwl
         eco_hpwl);
  let dirty, fallback =
    match eco_summary with
    | Some e -> e.P.dirty_fraction, e.P.fallback
    | None -> failwith "SRV: eco job carried no summary"
  in
  if fallback then failwith "SRV: eco job fell back to the full flow";
  let speedup = full_wall /. eco_wall in
  say "  eco: dirty %.1f%% of movables, %6.3f s vs %6.2f s from scratch  ->  %.1fx" (100.0 *. dirty)
    eco_wall full_wall speedup;
  say "  gate: the same ECO with stage oracles (check) and clean-region bit-equality (verify) held";
  say "  timed: check off (the base and the ECO), same HPWL as the gated ECO";
  if dirty > 0.05 then
    say "SRV: warning: dirty fraction %.3f above the 5%% edit-locality target" dirty;
  if speedup < 3.0 then
    say "SRV: warning: eco speedup %.1fx below the 3x target on this machine" speedup;
  let oc = open_out "BENCH_srv.json" in
  Printf.fprintf oc
    {|{"jobs":%d,"host_parallelism":%d,"throughput":[%s],"eco":{"design":"dp_mix_l","full_wall_s":%.3f,"eco_wall_s":%.3f,"speedup":%.2f,"dirty_fraction":%.4f,"fallback":%b,"verified":true,"checked":false,"gate":{"checked":true,"verified":true}}}
|}
    njobs cores
    (String.concat ","
       (List.map
          (fun (c, w, j) ->
            Printf.sprintf {|{"clients":%d,"wall_s":%.3f,"jobs_per_s":%.3f}|} c w j)
          throughput))
    full_wall eco_wall speedup dirty fallback;
  close_out oc;
  say "  written BENCH_srv.json"

(* ------------------------------------------------------------------ *)

let experiments : (string * string * (unit -> unit)) list =
  [
    ( "T1",
      "benchmark statistics",
      fun () -> Experiment.print_table (Experiment.table1 ()) );
    ( "T2",
      "extraction quality",
      fun () -> Experiment.print_table (Experiment.table2 ()) );
    ( "T3+T4+T6",
      "main comparison + runtime breakdown + routability/timing",
      fun () ->
        let entries = Experiment.run_suite () in
        Experiment.print_table (Experiment.table3 entries);
        say "";
        Experiment.print_table (Experiment.table4 entries);
        say "";
        Experiment.print_table (Experiment.table6 entries) );
    ( "T5",
      "structure-mode ablation",
      fun () -> Experiment.print_table (Experiment.table5 ()) );
    ("F1", "GP convergence", fun () -> Series.print (Experiment.figure1 ()));
    ("F2", "dp-fraction sweep", fun () -> Series.print (Experiment.figure2 ()));
    ("F3", "beta ablation", fun () -> Series.print (Experiment.figure3 ()));
    ("F4", "runtime scaling", fun () -> Series.print (Experiment.figure4 ()));
    ("F5", "extraction noise robustness", fun () -> Series.print (Experiment.figure5 ()));
    ("DP", "detailed-placement move-evaluation microbenchmark", run_detail_bench);
    ("PAR", "domain-parallel kernel sweep (1/2/4/8 worker domains)", run_par_bench);
    ( "LG",
      "parallel legalization & detailed placement (indexed occupancy, 1/2/4/8 domains)",
      run_legal_bench );
    ( "ML",
      "multilevel vs flat global placement (V-cycle speedup behind determinism gates)",
      run_ml_bench );
    ( "RT",
      "congestion-driven placement tradeoff (ACE/HPWL, off vs on, equality gated)",
      run_rt_bench );
    ( "XL",
      "flat SoA core vs record kernels at 10k..1m cells (bit-equality gated; DPP_XL_MAX caps)",
      run_xl_bench );
    ( "SRV",
      "placement-as-a-service throughput + incremental-ECO latency (equality gated)",
      run_srv_bench );
  ]

let matches selector (id, _, _) =
  String.lowercase_ascii selector = String.lowercase_ascii id
  || (selector = "T3" || selector = "T4" || selector = "T6") && id = "T3+T4+T6"

let () =
  Logs.set_reporter (Logs.format_reporter ());
  Logs.set_level (Some Logs.Error);
  let args = Array.to_list Sys.argv |> List.tl in
  match args with
  | [ "-l" ] ->
    List.iter (fun (id, doc, _) -> say "%-6s %s" id doc) experiments
  | [ "-e"; sel ] -> (
    match List.find_opt (matches sel) experiments with
    | Some (id, doc, f) ->
      rule ();
      say "%s: %s" id doc;
      rule ();
      f ()
    | None ->
      say "unknown experiment %S; available experiments:" sel;
      List.iter (fun (id, doc, _) -> say "  %-9s %s" id doc) experiments;
      exit 1)
  | [] ->
    let t0 = Unix.gettimeofday () in
    List.iter
      (fun (id, doc, f) ->
        rule ();
        say "%s: %s" id doc;
        rule ();
        f ();
        say "")
      experiments;
    say "total bench time: %.1f s" (Unix.gettimeofday () -. t0)
  | _ ->
    say "usage: main.exe [-l | -e <experiment-id>]";
    exit 1
