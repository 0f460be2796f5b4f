(* End-to-end flow tests: both modes, legality, determinism, failure
   handling. *)

module Rect = Dpp_geom.Rect
module Types = Dpp_netlist.Types
module Builder = Dpp_netlist.Builder
module Design = Dpp_netlist.Design
module Pins = Dpp_wirelen.Pins
module Legality = Dpp_place.Legality
module Config = Dpp_core.Config
module Flow = Dpp_core.Flow
module Ctx = Dpp_core.Ctx
module Compose = Dpp_gen.Compose
module Trace = Dpp_report.Trace
module Json = Dpp_report.Json

let flow_design () =
  Compose.build
    {
      Compose.sp_name = "fl";
      sp_seed = 91;
      sp_blocks = [ Compose.Adder 16; Regbank 16; Regbank 16 ];
      sp_random_cells = 300;
      sp_utilization = 0.7;
    }

let small_cfg = { Config.structure_aware with Config.gp_rounds = 10; gp_inner_iters = 30 }

let audit (r : Flow.result) =
  let cx, cy = Pins.centers_of_design r.Flow.design in
  Legality.check r.Flow.design ~cx ~cy

let test_flow_baseline_legal () =
  let d = flow_design () in
  let r = Flow.run d { small_cfg with Config.mode = Config.Baseline } in
  Alcotest.(check (list string)) "no violations" [] (List.map (fun _ -> "v") (audit r));
  let legal = List.find (fun s -> s.Trace.name = "legal") r.Flow.stage_trace in
  Alcotest.(check bool) "final <= legal hpwl" true
    (r.Flow.hpwl_final <= legal.Trace.hpwl_after +. 1e-6);
  Alcotest.(check bool) "positive metrics" true
    (r.Flow.hpwl_final > 0.0 && r.Flow.steiner_final > 0.0);
  Alcotest.(check bool) "steiner >= hpwl" true (r.Flow.steiner_final >= r.Flow.hpwl_final -. 1e-6);
  Alcotest.(check bool) "no extraction in baseline" true (r.Flow.extraction = None)

let test_flow_structure_aware_legal () =
  let d = flow_design () in
  let r = Flow.run d small_cfg in
  Alcotest.(check (list string)) "no violations" [] (List.map (fun _ -> "v") (audit r));
  Alcotest.(check bool) "extraction ran" true (r.Flow.extraction <> None);
  Alcotest.(check bool) "groups used" true (r.Flow.groups_used <> []);
  (* snapped rigid arrays end perfectly aligned (covered by the structure
     suite); groups left soft on this deliberately short-GP config keep
     residual error, so here the metric only has to be well-formed *)
  Alcotest.(check bool) "alignment error well-formed" true
    (Float.is_finite r.Flow.align_error_final && r.Flow.align_error_final >= 0.0)

let test_flow_input_untouched () =
  let d = flow_design () in
  let x0 = Array.copy d.Design.x in
  ignore (Flow.run d small_cfg);
  Alcotest.(check bool) "input design unchanged" true (d.Design.x = x0)

let test_flow_deterministic () =
  let d = flow_design () in
  let r1 = Flow.run d small_cfg in
  let r2 = Flow.run d small_cfg in
  Alcotest.(check (float 1e-9)) "same hpwl" r1.Flow.hpwl_final r2.Flow.hpwl_final

let test_flow_soft_mode () =
  let d = flow_design () in
  let r = Flow.run d (Config.with_structure Config.Soft_alignment small_cfg) in
  Alcotest.(check (list string)) "soft mode legal" [] (List.map (fun _ -> "v") (audit r))

let test_flow_invalid_design_raises () =
  (* overfull die must be rejected before placement *)
  let die = Rect.make ~xl:0.0 ~yl:0.0 ~xh:10.0 ~yh:10.0 in
  let b = Builder.create ~die ~row_height:10.0 ~site_width:1.0 () in
  for k = 0 to 9 do
    ignore
      (Builder.add_cell b ~name:(Printf.sprintf "c%d" k) ~master:"X" ~w:2.0 ~h:10.0
         ~kind:Types.Movable)
  done;
  let d = Builder.finish b in
  Alcotest.(check bool) "Invalid_design raised" true
    (try
       ignore (Flow.run d small_cfg);
       false
     with Flow.Invalid_design _ -> true)

let test_flow_times_recorded () =
  let d = flow_design () in
  let r = Flow.run d small_cfg in
  let stage s = List.exists (fun (t : Trace.stage) -> t.Trace.name = s) r.Flow.stage_trace in
  Alcotest.(check bool) "stages timed" true
    (stage "extract" && stage "init" && stage "gp" && stage "legal" && stage "detail");
  let staged =
    List.fold_left (fun acc (t : Trace.stage) -> acc +. t.Trace.wall_s) 0.0 r.Flow.stage_trace
  in
  Alcotest.(check bool) "total covers stages" true (r.Flow.total_time >= staged -. 1e-6)

let test_flow_run_both_modes_differ () =
  let d = flow_design () in
  let base, sa = Flow.run_both d small_cfg in
  Alcotest.(check bool) "modes recorded" true
    (base.Flow.config.Config.mode = Config.Baseline
    && sa.Flow.config.Config.mode = Config.Structure_aware)

let test_flow_no_groups_ties_baseline () =
  (* a design where extraction finds nothing: both flows must coincide *)
  let d =
    Compose.build
      {
        Compose.sp_name = "tie";
        sp_seed = 92;
        sp_blocks = [ Compose.Adder 4 ];
        sp_random_cells = 400;
        sp_utilization = 0.7;
      }
  in
  let base, sa = Flow.run_both d small_cfg in
  if sa.Flow.groups_used = [] then
    Alcotest.(check (float 1e-6)) "identical when no groups" base.Flow.hpwl_final
      sa.Flow.hpwl_final
  else
    (* extraction found the tiny adder: results may differ but must be sane *)
    Alcotest.(check bool) "sane ratio" true
      (sa.Flow.hpwl_final /. base.Flow.hpwl_final < 1.3)

(* [stages] with a probe spliced in right after the named stage: it reads
   the context as that stage left it. *)
let probe_after name probe stages =
  List.concat_map
    (fun (s : Flow.stage) ->
      if s.Flow.name = name then
        [ s; { Flow.name = "probe-" ^ name; run = (fun ctx -> probe ctx; ctx) } ]
      else [ s ])
    stages

(* The Design-only wrappers derive the flat view themselves; the flow's
   stages use the context's.  Both must compute the same thing. *)
let test_wrappers_agree_with_flow () =
  let d = Compose.build (Option.get (Dpp_gen.Presets.by_name "dp_add32")) in
  let cfg = Config.structure_aware in
  let groups = ref [] and centres = ref ([||], [||]) in
  let stages =
    Flow.stages cfg
    |> probe_after "extract" (fun ctx ->
           groups := (fst (Option.get ctx.Ctx.extraction)).Dpp_extract.Slicer.groups)
    |> probe_after "init" (fun ctx -> centres := Array.copy ctx.Ctx.cx, Array.copy ctx.Ctx.cy)
  in
  ignore (Flow.run_stages ~stages d cfg);
  Alcotest.(check bool) "extraction found groups" true (!groups <> []);
  Alcotest.(check bool) "Slicer.run returns the extract stage's groups" true
    ((Dpp_extract.Slicer.run d Dpp_extract.Slicer.default_config).Dpp_extract.Slicer.groups
    = !groups);
  let qp = Dpp_place.Qp.run ~seed:cfg.Config.seed d in
  let cx, cy = !centres in
  Alcotest.(check bool) "Qp.run returns the init stage's centres" true
    (Array.for_all2 Float.equal qp.Dpp_place.Qp.cx cx
    && Array.for_all2 Float.equal qp.Dpp_place.Qp.cy cy)

let test_legal_failed_traced () =
  let d = flow_design () in
  let failed = ref (-1) in
  let stages =
    Flow.stages small_cfg
    |> probe_after "legal" (fun ctx ->
           failed := List.length (Option.get ctx.Ctx.legal).Dpp_place.Legal.failed)
  in
  let r = Flow.run_stages ~stages d small_cfg in
  let legal = List.find (fun (t : Trace.stage) -> t.Trace.name = "legal") r.Flow.stage_trace in
  Alcotest.(check bool) "legal_failed matches the legalizer's count" true
    (List.assoc_opt "legal_failed" legal.Trace.extra = Some (Json.Num (float_of_int !failed)))

(* The coarse hierarchy is read by the gp-boundary oracle only; the snap
   stage releases it so the coarse designs are not live through the
   fine-grained stages. *)
let test_ml_levels_released () =
  let d = Compose.build (Option.get (Dpp_gen.Presets.by_name "dp_mix_s")) in
  let cfg = { small_cfg with Config.multilevel = Config.Ml_on } in
  let after_gp = ref 0 and after_snap = ref (-1) in
  let stages =
    Flow.stages cfg
    |> probe_after "gp" (fun ctx -> after_gp := List.length ctx.Ctx.ml_levels)
    |> probe_after "snap" (fun ctx -> after_snap := List.length ctx.Ctx.ml_levels)
  in
  ignore (Flow.run_stages ~stages d cfg);
  Alcotest.(check bool) "levels live after gp" true (!after_gp > 0);
  Alcotest.(check int) "levels released by snap" 0 !after_snap

(* Words a stage allocates count in its ledger even when no collection
   folds them into the GC's statistics before the stage ends: one
   10,000-float array goes straight into the major heap (it is past the
   minor heap's size limit), and a 30,000-cell list fills 90,000 words of
   the 256k-word minor heap. *)
let test_ledger_counts_words () =
  let d = flow_design () in
  let cfg = { small_cfg with Config.mode = Config.Baseline } in
  let stage name f =
    {
      Flow.name;
      run =
        (fun ctx ->
          f ();
          ctx);
    }
  in
  let major () = ignore (Sys.opaque_identity (Array.make 10_000 0.0)) in
  let minor () =
    let l = ref [] in
    for i = 1 to 30_000 do
      l := Sys.opaque_identity (i :: !l)
    done;
    ignore (Sys.opaque_identity !l)
  in
  let metrics = List.find (fun s -> s.Flow.name = "metrics") (Flow.stages cfg) in
  let stages = [ stage "major" major; stage "minor" minor; metrics ] in
  let r = Flow.run_ctx ~stages (Flow.context d cfg) in
  let mwords name key =
    let st = List.find (fun (t : Trace.stage) -> t.Trace.name = name) r.Flow.stage_trace in
    match List.assoc_opt key st.Trace.extra with
    | Some (Json.Num w) -> w
    | _ -> Alcotest.failf "no %s in the %s stage record" key name
  in
  let major = mwords "major" "gc_major_mwords" and minor = mwords "minor" "gc_minor_mwords" in
  Alcotest.(check bool) (Printf.sprintf "major Mwords %g >= 0.01" major) true (major >= 0.01);
  Alcotest.(check bool) (Printf.sprintf "minor Mwords %g >= 0.08" minor) true (minor >= 0.08)

let test_multilevel_threshold () =
  let cfg = Config.structure_aware in
  Alcotest.(check bool) "1500 movables stay flat" false
    (Config.multilevel_enabled cfg ~movables:1500);
  Alcotest.(check bool) "1501 movables go multilevel" true
    (Config.multilevel_enabled cfg ~movables:1501)

let suite =
  [
    Alcotest.test_case "baseline legal" `Slow test_flow_baseline_legal;
    Alcotest.test_case "structure-aware legal" `Slow test_flow_structure_aware_legal;
    Alcotest.test_case "input untouched" `Slow test_flow_input_untouched;
    Alcotest.test_case "deterministic" `Slow test_flow_deterministic;
    Alcotest.test_case "soft mode" `Slow test_flow_soft_mode;
    Alcotest.test_case "invalid design" `Quick test_flow_invalid_design_raises;
    Alcotest.test_case "times recorded" `Slow test_flow_times_recorded;
    Alcotest.test_case "run_both" `Slow test_flow_run_both_modes_differ;
    Alcotest.test_case "no-group tie" `Slow test_flow_no_groups_ties_baseline;
    Alcotest.test_case "wrappers agree with flow" `Slow test_wrappers_agree_with_flow;
    Alcotest.test_case "legal failed count traced" `Slow test_legal_failed_traced;
    Alcotest.test_case "coarse levels released after gp" `Slow test_ml_levels_released;
    Alcotest.test_case "multilevel threshold" `Quick test_multilevel_threshold;
    Alcotest.test_case "ledger counts unfolded words" `Quick test_ledger_counts_words;
  ]
