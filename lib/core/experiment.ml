module Design = Dpp_netlist.Design
module Nstats = Dpp_netlist.Nstats
module Slicer = Dpp_extract.Slicer
module Exmetrics = Dpp_extract.Exmetrics
module Table = Dpp_report.Table
module Series = Dpp_report.Series
module Trace = Dpp_report.Trace
module Statx = Dpp_util.Statx

type table = { t_title : string; t_header : string list; t_rows : string list list }

let print_table t = Table.print ~title:t.t_title ~header:t.t_header t.t_rows

let suite_designs () =
  List.map (fun spec -> spec.Dpp_gen.Compose.sp_name, Dpp_gen.Compose.build spec)
    Dpp_gen.Presets.suite

(* the single-design figures all run on the quick adder preset *)
let figure_design = "dp_add32"

let build_figure_design () =
  Dpp_gen.Compose.build (Option.get (Dpp_gen.Presets.by_name figure_design))

(* ------------------------------------------------------------------ *)

let table1 () =
  let rows =
    List.map (fun (_, d) -> Nstats.to_row (Nstats.compute d)) (suite_designs ())
  in
  { t_title = "Table 1: benchmark statistics"; t_header = Nstats.header; t_rows = rows }

let table2 () =
  let rows =
    List.map
      (fun (name, d) ->
        let t0 = Unix.gettimeofday () in
        let r = Slicer.run d Slicer.default_config in
        let dt = Unix.gettimeofday () -. t0 in
        let m = Exmetrics.compare_to_truth ~truth:d.Design.groups ~found:r.Slicer.groups in
        Exmetrics.to_row name m @ [ Printf.sprintf "%.3f" dt ])
      (suite_designs ())
  in
  {
    t_title = "Table 2: datapath extraction quality (vs generator ground truth)";
    t_header = Exmetrics.header @ [ "time(s)" ];
    t_rows = rows;
  }

(* ------------------------------------------------------------------ *)

type t3_entry = { e_design : string; e_base : Flow.result; e_sa : Flow.result }

let run_suite () =
  List.map
    (fun (name, d) ->
      let base, sa = Flow.run_both d Config.structure_aware in
      { e_design = name; e_base = base; e_sa = sa })
    (suite_designs ())

let table3 entries =
  let rows =
    List.map
      (fun e ->
        [
          e.e_design;
          Printf.sprintf "%.0f" e.e_base.Flow.hpwl_final;
          Printf.sprintf "%.0f" e.e_sa.Flow.hpwl_final;
          Printf.sprintf "%.4f" (e.e_sa.Flow.hpwl_final /. e.e_base.Flow.hpwl_final);
          Printf.sprintf "%.0f" e.e_base.Flow.steiner_final;
          Printf.sprintf "%.0f" e.e_sa.Flow.steiner_final;
          Printf.sprintf "%.4f" (e.e_sa.Flow.steiner_final /. e.e_base.Flow.steiner_final);
          string_of_int (List.length e.e_sa.Flow.groups_used);
          Printf.sprintf "%.2f" e.e_sa.Flow.align_error_final;
        ])
      entries
  in
  let rows = rows @ [ Table.geomean_row ~label:"geomean" rows ] in
  {
    t_title =
      "Table 3: placement quality, baseline vs structure-aware (ratio < 1 means \
       structure-aware wins)";
    t_header =
      [
        "design"; "HPWL-base"; "HPWL-sa"; "HPWL-ratio"; "StWL-base"; "StWL-sa"; "StWL-ratio";
        "#groups"; "align-err";
      ];
    t_rows = rows;
  }

let stage_time (r : Flow.result) stage =
  match List.find_opt (fun (s : Trace.stage) -> s.Trace.name = stage) r.Flow.stage_trace with
  | Some s -> s.Trace.wall_s
  | None -> 0.0

let table4 entries =
  let rows =
    List.map
      (fun e ->
        [
          e.e_design;
          Printf.sprintf "%.2f" e.e_base.Flow.total_time;
          Printf.sprintf "%.2f" (stage_time e.e_sa "extract");
          Printf.sprintf "%.2f" (stage_time e.e_sa "init");
          Printf.sprintf "%.2f" (stage_time e.e_sa "gp");
          Printf.sprintf "%.2f" (stage_time e.e_sa "snap");
          Printf.sprintf "%.2f" (stage_time e.e_sa "legal");
          Printf.sprintf "%.2f" (stage_time e.e_sa "detail");
          Printf.sprintf "%.2f" e.e_sa.Flow.total_time;
          Printf.sprintf "%.3f" (e.e_sa.Flow.total_time /. e.e_base.Flow.total_time);
        ])
      entries
  in
  {
    t_title = "Table 4: runtime (seconds); structure-aware broken down by stage";
    t_header =
      [
        "design"; "base-total"; "sa-extract"; "sa-init"; "sa-gp"; "sa-snap"; "sa-legal";
        "sa-detail"; "sa-total"; "ratio";
      ];
    t_rows = rows;
  }

let table6 entries =
  let rows =
    List.map
      (fun e ->
        let cb = e.e_base.Flow.congestion and cs = e.e_sa.Flow.congestion in
        [
          e.e_design;
          Printf.sprintf "%.3f" cb.Dpp_congest.Rudy.max_ratio;
          Printf.sprintf "%.3f" cs.Dpp_congest.Rudy.max_ratio;
          Printf.sprintf "%.3f" cb.Dpp_congest.Rudy.p95_ratio;
          Printf.sprintf "%.3f" cs.Dpp_congest.Rudy.p95_ratio;
          Printf.sprintf "%.1f" e.e_base.Flow.critical_delay;
          Printf.sprintf "%.1f" e.e_sa.Flow.critical_delay;
          Printf.sprintf "%.4f" (e.e_sa.Flow.critical_delay /. e.e_base.Flow.critical_delay);
        ])
      entries
  in
  {
    t_title =
      "Table 6: routability (RUDY demand ratios) and timing (lite-STA critical delay), \
       baseline vs structure-aware";
    t_header =
      [
        "design"; "max-base"; "max-sa"; "p95-base"; "p95-sa"; "delay-base"; "delay-sa";
        "delay-ratio";
      ];
    t_rows = rows;
  }

(* ------------------------------------------------------------------ *)

let ablation_designs = [ "dp_add32"; "dp_mult8"; "dp_mix_l" ]

let table5 () =
  let rows =
    List.concat_map
      (fun name ->
        match Dpp_gen.Presets.by_name name with
        | None -> []
        | Some spec ->
          let d = Dpp_gen.Compose.build spec in
          let base = Flow.run d Config.baseline in
          let run cfg = Flow.run d { cfg with Config.mode = Config.Structure_aware } in
          let rigid = run Config.structure_aware in
          let soft = run (Config.with_structure Config.Soft_alignment Config.structure_aware) in
          let unfiltered =
            run { Config.structure_aware with Config.min_coupling = 0.0; max_slice_span = 1e9 }
          in
          let cell r = Printf.sprintf "%.4f" (r.Flow.hpwl_final /. base.Flow.hpwl_final) in
          [
            [
              name;
              Printf.sprintf "%.0f" base.Flow.hpwl_final;
              cell rigid;
              cell soft;
              cell unfiltered;
            ];
          ])
      ablation_designs
  in
  {
    t_title =
      "Table 5: ablation — HPWL ratio vs baseline for rigid macros (default), soft \
       alignment, and with the regularity filter disabled";
    t_header = [ "design"; "HPWL-base"; "rigid"; "soft"; "no-filter" ];
    t_rows = rows;
  }

(* ------------------------------------------------------------------ *)

let figure1 () =
  let d = build_figure_design () in
  let base, sa = Flow.run_both d Config.structure_aware in
  let max_rounds = max (List.length base.Flow.trace) (List.length sa.Flow.trace) in
  let lookup trace k =
    match List.nth_opt trace k with
    | Some (ri : Dpp_place.Gp.round_info) -> ri.Dpp_place.Gp.hpwl, ri.Dpp_place.Gp.overflow
    | None -> (
      (* design converged: repeat the last point *)
      match List.rev trace with
      | ri :: _ -> ri.Dpp_place.Gp.hpwl, ri.Dpp_place.Gp.overflow
      | [] -> 0.0, 0.0)
  in
  let points =
    List.init max_rounds (fun k ->
        let bh, bo = lookup base.Flow.trace k in
        let sh, so = lookup sa.Flow.trace k in
        float_of_int (k + 1), [ bh; bo; sh; so ])
  in
  Series.make
    ~title:(Printf.sprintf "Figure 1: GP convergence on %s" figure_design)
    ~x_label:"round"
    ~y_labels:[ "hpwl-base"; "ovf-base"; "hpwl-sa"; "ovf-sa" ]
    points

let figure2 () =
  let cells = 2500 in
  let fractions = [ 0.1; 0.2; 0.3; 0.4; 0.5; 0.6; 0.7; 0.8 ] in
  let points =
    List.map
      (fun f ->
        let spec =
          Dpp_gen.Presets.scaled
            ~name:(Printf.sprintf "sweep%02.0f" (100.0 *. f))
            ~seed:(300 + int_of_float (100.0 *. f))
            ~cells ~dp_fraction:f
        in
        let d = Dpp_gen.Compose.build spec in
        let base, sa = Flow.run_both d Config.structure_aware in
        let st = Nstats.compute d in
        ( st.Nstats.s_datapath_fraction,
          [
            sa.Flow.hpwl_final /. base.Flow.hpwl_final;
            sa.Flow.steiner_final /. base.Flow.steiner_final;
          ] ))
      fractions
  in
  Series.make
    ~title:
      (Printf.sprintf
         "Figure 2: structure-aware / baseline wirelength ratio vs datapath fraction (~%d \
          cells)"
         cells)
    ~x_label:"dp-fraction"
    ~y_labels:[ "hpwl-ratio"; "steiner-ratio" ]
    points

let figure3 () =
  let d = build_figure_design () in
  let base = Flow.run d Config.baseline in
  let betas = [ 0.0; 0.25; 0.5; 1.0; 2.0; 4.0; 8.0 ] in
  let points =
    List.map
      (fun beta ->
        let cfg =
          Config.with_beta beta
            (Config.with_structure Config.Soft_alignment Config.structure_aware)
        in
        let sa = Flow.run d cfg in
        beta, [ sa.Flow.hpwl_final /. base.Flow.hpwl_final; sa.Flow.align_error_final ])
      betas
  in
  Series.make
    ~title:
      (Printf.sprintf
         "Figure 3: soft-alignment weight sweep on %s (HPWL ratio vs baseline; final \
          alignment error)"
         figure_design)
    ~x_label:"beta"
    ~y_labels:[ "hpwl-ratio"; "align-error" ]
    points

let figure4 () =
  let points =
    List.map
      (fun cells ->
        let spec =
          Dpp_gen.Presets.scaled
            ~name:(Printf.sprintf "scale%d" cells)
            ~seed:(500 + cells) ~cells ~dp_fraction:0.5
        in
        let d = Dpp_gen.Compose.build spec in
        let base, sa = Flow.run_both d Config.structure_aware in
        ( float_of_int (Design.num_cells d),
          [
            base.Flow.total_time;
            sa.Flow.total_time;
            sa.Flow.hpwl_final /. base.Flow.hpwl_final;
          ] ))
      [ 1000; 2000; 4000; 8000 ]
  in
  Series.make ~title:"Figure 4: runtime scaling (seconds) and quality vs design size"
    ~x_label:"#cells"
    ~y_labels:[ "time-base"; "time-sa"; "hpwl-ratio" ]
    points

let figure5 () =
  let clean = build_figure_design () in
  let fractions = [ 0.0; 0.02; 0.05; 0.1; 0.2; 0.4 ] in
  let points =
    List.map
      (fun f ->
        let rng = Dpp_util.Rng.create (900 + int_of_float (1000.0 *. f)) in
        let d = Dpp_gen.Noise.rewire ~rng ~fraction:f clean in
        let r = Slicer.run d Slicer.default_config in
        let m = Exmetrics.compare_to_truth ~truth:d.Design.groups ~found:r.Slicer.groups in
        f, [ m.Exmetrics.precision; m.Exmetrics.recall ])
      fractions
  in
  Series.make
    ~title:
      (Printf.sprintf "Figure 5: extraction robustness vs rewiring noise on %s" figure_design)
    ~x_label:"noise-fraction"
    ~y_labels:[ "precision"; "recall" ]
    points
