module Design = Dpp_netlist.Design
module Validate = Dpp_netlist.Validate
module Groups = Dpp_netlist.Groups
module Pins = Dpp_wirelen.Pins
module Hpwl = Dpp_wirelen.Hpwl
module Rsmt = Dpp_steiner.Rsmt
module Slicer = Dpp_extract.Slicer
module Exmetrics = Dpp_extract.Exmetrics
module Dgroup = Dpp_structure.Dgroup
module Alignment = Dpp_structure.Alignment
module Shaping = Dpp_structure.Shaping
module Qp = Dpp_place.Qp
module Gp = Dpp_place.Gp
module Legal = Dpp_place.Legal
module Detail = Dpp_place.Detail
module Trace = Dpp_report.Trace
module Json = Dpp_report.Json

exception Invalid_design of Validate.issue list

exception Check_failed of { stage : string; violations : string list }

type result = {
  design : Design.t;
  config : Config.t;
  hpwl_final : float;
  steiner_final : float;
  steiner_nets : Rsmt.nets;
  congestion : Dpp_congest.Rudy.stats;
  critical_delay : float;
  overflow_gp : float;
  align_error_final : float;
  groups_used : Groups.t list;
  extraction : (Slicer.result * Exmetrics.t) option;
  trace : Gp.round_info list;
  rt_trace : Gp.rt_round list;
  stage_trace : Trace.stage list;
  total_time : float;
}

type stage = { name : string; run : Ctx.t -> Ctx.t }

let src = Logs.Src.create "dpp.flow" ~doc:"placement flow"

module Log = (val Logs.src_log src : Logs.LOG)

let copy_design (d : Design.t) =
  { d with Design.x = Array.copy d.Design.x; y = Array.copy d.Design.y;
           orient = Array.copy d.Design.orient }

(* groups small enough to snap become rigid macros (primary mode);
   oversized ones and every group in the soft-ablation mode take the
   alignment-penalty path instead *)
let snap_fraction = 0.25

(* ----- stages ----- *)

let extract_stage =
  {
    name = "extract";
    run =
      (fun (ctx : Ctx.t) ->
        let d = ctx.Ctx.design in
        let r = Slicer.run_with ~soa:ctx.Ctx.soa Slicer.default_config in
        let metrics = Exmetrics.compare_to_truth ~truth:d.Design.groups ~found:r.Slicer.groups in
        Log.info (fun m ->
            m "extraction: %d groups, precision %.3f recall %.3f" (List.length r.Slicer.groups)
              metrics.Exmetrics.precision metrics.Exmetrics.recall);
        ctx.Ctx.extraction <- Some (r, metrics);
        ctx.Ctx.groups_used <- r.Slicer.groups;
        ctx);
  }

let init_stage =
  {
    name = "init";
    run =
      (fun (ctx : Ctx.t) ->
        let d = ctx.Ctx.design and cfg = ctx.Ctx.config in
        let qp = Qp.run_with ~seed:cfg.Config.seed ~soa:ctx.Ctx.soa d in
        Ctx.set_coords ctx qp.Qp.cx qp.Qp.cy;
        (* idealized arrays are oriented by the connectivity-driven initial
           placement, so alignment works with the net forces, not against
           them *)
        (* regularity evaluation: structures dominated by boundary coupling
           lose wirelength when constrained, so they are dropped here *)
        let groups_kept =
          List.filter
            (fun g ->
              Dgroup.internal_coupling d g >= cfg.Config.min_coupling
              && Dgroup.slice_span d g <= cfg.Config.max_slice_span)
            ctx.Ctx.groups_used
        in
        ctx.Ctx.dgroups <-
          (if groups_kept = [] then []
           else Dgroup.build_all_ordered d groups_kept ~cx:ctx.Ctx.cx ~cy:ctx.Ctx.cy);
        let die_area = Dpp_geom.Rect.area d.Design.die in
        let rigid, soft =
          match cfg.Config.mode, cfg.Config.structure with
          | Config.Baseline, _ -> [], []
          | Config.Structure_aware, Config.Soft_alignment -> [], ctx.Ctx.dgroups
          | Config.Structure_aware, Config.Rigid_macros ->
            List.partition
              (fun dg ->
                dg.Dgroup.width *. dg.Dgroup.height <= snap_fraction *. die_area)
              ctx.Ctx.dgroups
        in
        ctx.Ctx.rigid_dgs <- rigid;
        ctx.Ctx.soft_dgs <- soft;
        (* movable multi-row macros ride the rigid machinery in both modes *)
        ctx.Ctx.macro_dgs <- List.map (Dgroup.of_movable_macro d) (Dgroup.movable_macros d);
        ctx);
  }

let gp_stage =
  {
    name = "gp";
    run =
      (fun (ctx : Ctx.t) ->
        let d = ctx.Ctx.design and cfg = ctx.Ctx.config in
        let gp_cfg =
          {
            Gp.default_config with
            Gp.target_density = cfg.Config.target_density;
            rounds = cfg.Config.gp_rounds;
            inner_iters = cfg.Config.gp_inner_iters;
            beta =
              (match cfg.Config.mode with
              | Config.Baseline -> 0.0
              | Config.Structure_aware -> cfg.Config.beta);
            groups = ctx.Ctx.soft_dgs;
            rigid_groups = ctx.Ctx.rigid_dgs @ ctx.Ctx.macro_dgs;
            pool = ctx.Ctx.pool;
            routability = cfg.Config.routability;
            rt_interval = cfg.Config.rt_interval;
          }
        in
        let movables = Array.length (Design.movable_ids d) in
        let levels =
          if Config.multilevel_enabled cfg ~movables then
            (* bit-slices and movable macros seed the first-level
               clusters, so no group is ever split across clusters *)
            Dpp_coarsen.build ~groups:(ctx.Ctx.dgroups @ ctx.Ctx.macro_dgs)
              ~min_cells:cfg.Config.ml_min_cells ~max_levels:cfg.Config.ml_max_levels
              ~seed:cfg.Config.seed ~soa:ctx.Ctx.soa d
          else []
        in
        ctx.Ctx.ml_levels <- levels;
        let mlr =
          Gp.run_multilevel ~pins:ctx.Ctx.pins d gp_cfg ~levels ~cx:ctx.Ctx.cx ~cy:ctx.Ctx.cy
        in
        ctx.Ctx.gp <- Some mlr.Gp.result;
        ctx.Ctx.gp_levels <- mlr.Gp.level_trace;
        Ctx.set_coords ctx mlr.Gp.result.Gp.cx mlr.Gp.result.Gp.cy;
        ctx);
  }

let snap_stage =
  {
    name = "snap";
    run =
      (fun (ctx : Ctx.t) ->
        let d = ctx.Ctx.design and cfg = ctx.Ctx.config in
        (* the gp-boundary oracle was the hierarchy's last reader: release
           the coarse designs and their views before the fine-grained
           stages allocate *)
        ctx.Ctx.ml_levels <- [];
        let cx = ctx.Ctx.cx and cy = ctx.Ctx.cy in
        let pins = ctx.Ctx.pins in
        (* movable multi-row macros must become row-aligned obstacles in
           every mode: the row legalizer cannot handle them *)
        let placed_macros =
          Shaping.snap ~max_die_fraction:1.0 ~pins d ctx.Ctx.macro_dgs ~cx ~cy
        in
        let placed_groups =
          match cfg.Config.mode with
          | Config.Baseline -> []
          | Config.Structure_aware ->
            (* soft groups that fit also snap (they were pulled toward
               arrays by the penalty); Shaping drops oversized ones *)
            Shaping.snap ~max_die_fraction:snap_fraction
              ~extra_obstacles:(Shaping.obstacles placed_macros) ~pins d
              ctx.Ctx.dgroups ~cx ~cy
        in
        let placed = placed_macros @ placed_groups in
        List.iter (fun p -> Shaping.apply p ~cx ~cy) placed;
        let members = Hashtbl.create 1024 in
        List.iter
          (fun p ->
            Array.iter (fun c -> Hashtbl.replace members c ()) p.Shaping.dgroup.Dgroup.cells)
          placed;
        ctx.Ctx.obstacles <- Shaping.obstacles placed;
        let ids = Hashtbl.fold (fun c () acc -> c :: acc) members [] in
        Ctx.set_skip ctx (Array.of_list (List.sort compare ids));
        ctx);
  }

let legal_stage =
  {
    name = "legal";
    run =
      (fun (ctx : Ctx.t) ->
        let d = ctx.Ctx.design in
        let l =
          Legal.run d ~pool:ctx.Ctx.pool ~extra_obstacles:ctx.Ctx.obstacles
            ~skip:ctx.Ctx.skip ?bound:ctx.Ctx.bound ~soa:ctx.Ctx.soa ~cx:ctx.Ctx.cx
            ~cy:ctx.Ctx.cy ()
        in
        if l.Legal.failed <> [] then
          Log.err (fun m -> m "%d cells could not be legalized" (List.length l.Legal.failed));
        ctx.Ctx.legal <- Some l;
        Ctx.set_coords ctx l.Legal.cx l.Legal.cy;
        ctx);
  }

let detail_stage =
  {
    name = "detail";
    run =
      (fun (ctx : Ctx.t) ->
        let legal = Option.get ctx.Ctx.legal in
        let stats =
          Detail.run ctx.Ctx.design ~pool:ctx.Ctx.pool
            ~max_passes:ctx.Ctx.config.Config.detail_passes ~skip:ctx.Ctx.skip
            ?bound:ctx.Ctx.bound ~netbox:(Ctx.netbox ctx) ~legal ()
        in
        ctx.Ctx.detail_stats <- Some stats;
        ctx);
  }

let flip_stage =
  {
    name = "flip";
    run =
      (fun (ctx : Ctx.t) ->
        (* orientation optimization: free HPWL, cannot affect legality.
           Accepted flips mirror the shared pin view's offsets in place
           through the netbox, so the pin view built at context creation
           stays valid — no rebuild. *)
        let stats =
          Dpp_place.Flip.run ctx.Ctx.design ~pool:ctx.Ctx.pool ~skip:ctx.Ctx.flip_skip
            ~netbox:(Ctx.netbox ctx) ()
        in
        ctx.Ctx.flip_stats <- Some stats;
        ctx);
  }

let metrics_stage =
  {
    name = "metrics";
    run =
      (fun (ctx : Ctx.t) ->
        let d = ctx.Ctx.design in
        let cx = ctx.Ctx.cx and cy = ctx.Ctx.cy in
        let nets, total = Rsmt.measure ctx.Ctx.pins ~cx ~cy ~reuse:ctx.Ctx.steiner in
        ctx.Ctx.steiner <- nets;
        ctx.Ctx.steiner_final <- total;
        let rudy = Dpp_congest.Rudy.compute ~pool:ctx.Ctx.pool ~pins:ctx.Ctx.pins d ~cx ~cy in
        ctx.Ctx.congestion <- Some (Dpp_congest.Rudy.stats rudy);
        let sta = Dpp_timing.Sta.build d in
        let timing = Dpp_timing.Sta.analyze sta ~cx ~cy in
        ctx.Ctx.critical_delay <- timing.Dpp_timing.Sta.critical_delay;
        ctx);
  }

let stages (cfg : Config.t) =
  (match cfg.Config.mode with
  | Config.Baseline -> []
  | Config.Structure_aware -> [ extract_stage ])
  @ [ init_stage; gp_stage; snap_stage; legal_stage; detail_stage; flip_stage; metrics_stage ]

let eco_stages = [ legal_stage; detail_stage; flip_stage; metrics_stage ]

let resume_stages ~stages:stage_list ~after =
  let rec drop = function
    | [] -> []
    | s :: rest -> if s.name = after then rest else drop rest
  in
  if List.exists (fun s -> s.name = after) stage_list then drop stage_list
  else invalid_arg (Printf.sprintf "resume_stages: no stage named %S" after)

(* ----- driver ----- *)

let context (input : Design.t) (cfg : Config.t) =
  let issues = Validate.check input in
  if not (Validate.is_clean issues) then raise (Invalid_design (Validate.errors issues));
  List.iter
    (fun i ->
      match i.Validate.severity with
      | Validate.Warning -> Log.warn (fun m -> m "%a" Validate.pp_issue i)
      | Validate.Error -> ())
    issues;
  Ctx.create (copy_design input) cfg

let run_ctx ?observer ?(check = false) ~stages:stage_list (ctx : Ctx.t) =
  let t_start = Unix.gettimeofday () in
  (* the worker pool must not outlive the flow, even on Check_failed *)
  Fun.protect ~finally:(fun () -> Dpp_par.Pool.shutdown ctx.Ctx.pool) @@ fun () ->
  let reports = ref [] in
  let hpwl_before = ref (Ctx.hpwl ctx) in
  List.iter
    (fun stage ->
      let g0 = Gc.quick_stat () in
      let minor0 = Gc.minor_words () and _, _, major0 = Gc.counters () in
      let t0 = Unix.gettimeofday () in
      let _ = stage.run ctx in
      let wall = Unix.gettimeofday () -. t0 in
      let minor1 = Gc.minor_words () and _, _, major1 = Gc.counters () in
      let g1 = Gc.quick_stat () in
      let hpwl_after = Ctx.hpwl ctx in
      let overflow =
        if stage.name = "gp" then Option.map (fun g -> g.Gp.final_overflow) ctx.Ctx.gp
        else None
      in
      let verdict = if check then Some (Checkpoint.run ~stage:stage.name ctx) else None in
      let levels =
        if stage.name <> "gp" then []
        else
          List.map
            (fun (l : Gp.level_info) ->
              {
                Trace.index = l.Gp.level;
                movables = l.Gp.movables;
                hpwl = l.Gp.hpwl;
                overflow = l.Gp.overflow;
                wall_s = l.Gp.wall_s;
              })
            ctx.Ctx.gp_levels
      in
      (* schema-tolerant extras: congestion/steiner headline numbers ride
         the stage records without widening the core schema.  Every stage
         additionally carries its allocation ledger: the words the calling
         domain allocated and the major collections.  On OCaml 5.1
         [Gc.quick_stat] counts words only up to the last collection or
         major slice, so the words come from [Gc.minor_words] (which
         counts the minor heap's current fill) and [Gc.counters]'s major
         words (which count words allocated straight into the major heap
         since the last slice; its minor words undercount that fill
         eightfold). *)
      let gc_extra =
        [
          "gc_minor_mwords", Json.Num ((minor1 -. minor0) /. 1e6);
          "gc_major_mwords", Json.Num ((major1 -. major0) /. 1e6);
          ( "gc_majors",
            Json.Num (float_of_int (g1.Gc.major_collections - g0.Gc.major_collections)) );
        ]
      in
      let extra =
        match stage.name with
        | "gp" -> (
          match ctx.Ctx.gp with
          | Some g when g.Gp.rt_trace <> [] ->
            let last = List.nth g.Gp.rt_trace (List.length g.Gp.rt_trace - 1) in
            [
              "rt_rounds", Json.Num (float_of_int (List.length g.Gp.rt_trace));
              "rt_best_ace", Json.Num last.Gp.rt_best;
            ]
          | _ -> [])
        | "legal" -> (
          match ctx.Ctx.legal with
          | Some l -> [ "legal_failed", Json.Num (float_of_int (List.length l.Legal.failed)) ]
          | None -> [])
        | "metrics" -> (
          match ctx.Ctx.congestion with
          | Some s ->
            [
              "steiner", Json.Num ctx.Ctx.steiner_final;
              "rudy_max", Json.Num s.Dpp_congest.Rudy.max_ratio;
              "rudy_ace", Json.Num s.Dpp_congest.Rudy.ace_ratio;
            ]
          | None -> [])
        | _ -> []
      in
      let extra = extra @ gc_extra in
      let rep =
        {
          Trace.name = stage.name;
          wall_s = wall;
          t_s = Unix.gettimeofday () -. t_start;
          hpwl_before = !hpwl_before;
          hpwl_after;
          overflow;
          (* memory ledger samples: both are high-water marks, so the
             stage whose record first shows a jump is the one that
             spiked the footprint *)
          vm_hwm_kb = Dpp_util.Meminfo.vm_hwm_kb ();
          heap_kb = Dpp_util.Meminfo.top_heap_kb ();
          levels;
          check = verdict;
          extra;
        }
      in
      reports := rep :: !reports;
      (match observer with Some f -> f rep | None -> ());
      (* attribute the first violation to the stage that introduced it:
         every earlier boundary was checked clean *)
      (match verdict with
      | Some { Trace.ok = false; violations; _ } ->
        raise (Check_failed { stage = stage.name; violations })
      | _ -> ());
      hpwl_before := hpwl_after)
    stage_list;
  let stage_trace = List.rev !reports in
  let d = ctx.Ctx.design in
  let fx = ctx.Ctx.cx and fy = ctx.Ctx.cy in
  (* report the exact recomputed metric, not the incrementally accumulated
     one (they agree to float-accumulation order; tables want the former) *)
  let hpwl_final = Hpwl.total ctx.Ctx.pins ~cx:fx ~cy:fy in
  let align_error_final =
    if ctx.Ctx.dgroups = [] then 0.0
    else Alignment.total_error ctx.Ctx.dgroups ~cx:fx ~cy:fy
  in
  Pins.apply_centers d fx fy;
  (* partial pipelines (incremental ECO, checkpoint resume) never run a gp
     stage; the gp-derived fields then report neutral values instead of
     erroring *)
  let gp = ctx.Ctx.gp in
  {
    design = d;
    config = ctx.Ctx.config;
    hpwl_final;
    steiner_final = ctx.Ctx.steiner_final;
    steiner_nets = ctx.Ctx.steiner;
    congestion = Option.get ctx.Ctx.congestion;
    critical_delay = ctx.Ctx.critical_delay;
    overflow_gp = (match gp with Some g -> g.Gp.final_overflow | None -> 0.0);
    align_error_final;
    groups_used = ctx.Ctx.groups_used;
    extraction = ctx.Ctx.extraction;
    trace = (match gp with Some g -> g.Gp.trace | None -> []);
    rt_trace = (match gp with Some g -> g.Gp.rt_trace | None -> []);
    stage_trace;
    total_time = Unix.gettimeofday () -. t_start;
  }

let run_stages ?prepare ~stages (input : Design.t) (cfg : Config.t) =
  let ctx = context input cfg in
  Option.iter (fun f -> f ctx) prepare;
  run_ctx ~stages ctx

let run ?observer ?check (input : Design.t) (cfg : Config.t) =
  run_ctx ?observer ?check ~stages:(stages cfg) (context input cfg)

let trace_of_result (r : result) =
  {
    Trace.design = r.design.Design.name;
    mode = Config.mode_to_string r.config.Config.mode;
    total_s = r.total_time;
    stages = r.stage_trace;
  }

let run_both ?check input cfg =
  let base = run ?check input { cfg with Config.mode = Config.Baseline } in
  let sa = run ?check input { cfg with Config.mode = Config.Structure_aware } in
  base, sa
