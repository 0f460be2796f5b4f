(* Incremental ECO re-placement: edit application, dirty-region planning,
   and the differential guarantee — clean cells bit-identical to the base
   placement while the full result stays legal. *)

module Rect = Dpp_geom.Rect
module Orient = Dpp_geom.Orient
module Types = Dpp_netlist.Types
module Design = Dpp_netlist.Design
module Pins = Dpp_wirelen.Pins
module Legality = Dpp_place.Legality
module Config = Dpp_core.Config
module Flow = Dpp_core.Flow
module Eco = Dpp_core.Eco
module Json = Dpp_report.Json

let base_cfg =
  { Config.baseline with Config.gp_rounds = 6; gp_inner_iters = 15; detail_passes = 1 }

let place spec_name cfg =
  let spec = Option.get (Dpp_gen.Presets.by_name spec_name) in
  let d = Dpp_gen.Compose.build spec in
  (Flow.run d cfg).Flow.design

let tiny_base =
  lazy
    (let d =
       Dpp_gen.Compose.build
         {
           Dpp_gen.Compose.sp_name = "eco_tiny";
           sp_seed = 17;
           sp_blocks = [ Dpp_gen.Compose.Adder 16; Regbank 16 ];
           sp_random_cells = 200;
           sp_utilization = 0.7;
         }
     in
     (Flow.run d base_cfg).Flow.design)

let seeded_edits (d : Design.t) seed =
  let rng = Dpp_util.Rng.create seed in
  let movable = Design.movable_ids d in
  let single_row =
    Array.to_list movable
    |> List.filter (fun i -> (Design.cell d i).Types.c_height <= d.Design.row_height +. 1e-9)
    |> Array.of_list
  in
  let pick a = a.(Dpp_util.Rng.int rng (Array.length a)) in
  let anchor = pick single_row in
  (* keep every edit near one anchor so the dirty region stays small *)
  let near =
    Array.of_list
      (List.filter
         (fun i ->
           abs_float (Design.cell_center_x d i -. Design.cell_center_x d anchor)
           < Rect.width d.Design.die /. 8.0
           && abs_float (Design.cell_center_y d i -. Design.cell_center_y d anchor)
              < 3.0 *. d.Design.row_height)
         (Array.to_list single_row))
  in
  let nets_of c =
    (Design.cell d c).Types.c_pins |> Array.to_list
    |> List.filter_map (fun p ->
           let n = (Design.pin d p).Types.p_net in
           if n >= 0 then Some n else None)
  in
  let rh = d.Design.row_height in
  [
    Eco.Move { cell = anchor; dx = 3.0 *. d.Design.site_width; dy = rh };
    Eco.Resize { cell = pick near; scale = 1.5 };
    Eco.Add { near = pick near; w = 3.0 *. d.Design.site_width; nets = nets_of anchor };
  ]
  @
  match nets_of (pick near) with
  | n :: _ -> [ Eco.Rewire { net = n; pin_index = 0; to_cell = pick near } ]
  | [] -> []

let check_differential ?(threshold = Eco.default_threshold) base edits =
  let r = Eco.run ~check:true ~threshold ~base edits base_cfg in
  let d = r.Eco.flow.Flow.design in
  (* full result legal (also asserted stage-by-stage via ~check) *)
  let cx, cy = Pins.centers_of_design d in
  Alcotest.(check int) "legal" 0 (List.length (Legality.check d ~cx ~cy));
  if not r.Eco.fallback then begin
    Alcotest.(check bool) "has dirty cells" true (Array.length r.Eco.plan.Eco.dirty > 0);
    (* clean cells bit-identical to the base placement *)
    Array.iter
      (fun i ->
        if Design.num_cells base > i then begin
          Alcotest.(check bool)
            (Printf.sprintf "clean cell %d x" i)
            true
            (d.Design.x.(i) = base.Design.x.(i) && d.Design.y.(i) = base.Design.y.(i));
          Alcotest.(check bool)
            (Printf.sprintf "clean cell %d orient" i)
            true
            (Orient.equal d.Design.orient.(i) base.Design.orient.(i))
        end)
      r.Eco.plan.Eco.frozen
  end;
  r

(* ----- unit: edit application ----- *)

let tiny () = Lazy.force tiny_base

let test_apply_preserves_ids () =
  let base = tiny () in
  let a = Eco.apply base [ Eco.Move { cell = 0; dx = 1.0; dy = 0.0 } ] in
  Alcotest.(check int) "cells" (Design.num_cells base) (Design.num_cells a.Eco.edited);
  Alcotest.(check int) "nets" (Design.num_nets base) (Design.num_nets a.Eco.edited);
  Alcotest.(check string)
    "names" (Design.cell base 5).Types.c_name (Design.cell a.Eco.edited 5).Types.c_name;
  Alcotest.(check (list string))
    "groups"
    (List.map (fun g -> g.Dpp_netlist.Groups.g_name) base.Design.groups)
    (List.map (fun g -> g.Dpp_netlist.Groups.g_name) a.Eco.edited.Design.groups);
  Alcotest.(check bool)
    "moved" true
    (abs_float (a.Eco.edited.Design.x.(0) -. (base.Design.x.(0) +. 1.0)) < 1e-9)

let test_apply_resize_and_add () =
  let base = tiny () in
  let m = (Design.movable_ids base).(0) in
  let a =
    Eco.apply base
      [
        Eco.Resize { cell = m; scale = 2.0 };
        Eco.Add { near = m; w = 2.5 *. base.Design.site_width; nets = [ 0 ] };
      ]
  in
  let d = a.Eco.edited in
  let w0 = (Design.cell base m).Types.c_width in
  let w1 = (Design.cell d m).Types.c_width in
  Alcotest.(check bool) "width grew" true (w1 > w0);
  Alcotest.(check bool)
    "site multiple" true
    (Float.rem w1 d.Design.site_width < 1e-9
    || d.Design.site_width -. Float.rem w1 d.Design.site_width < 1e-9);
  Alcotest.(check int) "one added cell" (Design.num_cells base + 1) (Design.num_cells d);
  let added = Design.num_cells base in
  Alcotest.(check bool) "added is movable" true
    ((Design.cell d added).Types.c_kind = Types.Movable);
  (* net 0 gained the new cell's pin *)
  let owners n dd =
    Array.to_list (Design.net dd n).Types.n_pins
    |> List.map (fun p -> (Design.pin dd p).Types.p_cell)
  in
  Alcotest.(check int) "net 0 grew"
    (List.length (owners 0 base) + 1)
    (List.length (owners 0 d));
  Alcotest.(check bool) "added on net 0" true (List.mem added (owners 0 d));
  Alcotest.(check bool) "seeds include added" true (Array.mem added a.Eco.seeds);
  Alcotest.(check bool) "net 0 structural" true (Array.mem 0 a.Eco.struct_nets)

let test_apply_rewire () =
  let base = tiny () in
  let n = 0 in
  let to_cell = (Design.movable_ids base).(3) in
  let a = Eco.apply base [ Eco.Rewire { net = n; pin_index = 0; to_cell } ] in
  let p = (Design.net a.Eco.edited n).Types.n_pins.(0) in
  Alcotest.(check int) "pin moved" to_cell (Design.pin a.Eco.edited p).Types.p_cell;
  (* rewire endpoints keep a legal placement, so they are not hard seeds;
     the net itself is flagged structural *)
  Alcotest.(check bool) "net structural" true (Array.mem n a.Eco.struct_nets);
  Alcotest.(check (array int)) "no hard seeds" [||] a.Eco.seeds;
  Alcotest.(check (array int)) "target anchors the region" [| to_cell |] a.Eco.anchors

let test_apply_rejects_bad_edits () =
  let base = tiny () in
  let raises e =
    match Eco.apply base [ e ] with
    | exception Invalid_argument _ -> true
    | _ -> false
  in
  Alcotest.(check bool) "bad cell" true (raises (Eco.Move { cell = -1; dx = 0.; dy = 0. }));
  Alcotest.(check bool) "bad scale" true
    (raises (Eco.Resize { cell = 0; scale = 0.0 }));
  Alcotest.(check bool) "bad net" true
    (raises (Eco.Rewire { net = 99999; pin_index = 0; to_cell = 0 }));
  Alcotest.(check bool) "empty" true
    (match Eco.apply base [] with exception Invalid_argument _ -> true | _ -> false)

let test_edit_json_codec () =
  let edits =
    [
      Eco.Move { cell = 3; dx = 1.5; dy = -10.0 };
      Eco.Resize { cell = 7; scale = 2.0 };
      Eco.Rewire { net = 11; pin_index = 2; to_cell = 5 };
      Eco.Add { near = 1; w = 4.0; nets = [ 2; 9 ] };
    ]
  in
  let back = Eco.edits_of_json (Json.parse (Json.encode (Eco.edits_to_json edits))) in
  Alcotest.(check bool) "roundtrip" true (edits = back)

(* ----- planning ----- *)

let test_plan_bounds_dirty_set () =
  let base = tiny () in
  let edits = seeded_edits base 42 in
  let p = Eco.plan base edits in
  Alcotest.(check bool) "some dirty" true (Array.length p.Eco.dirty > 0);
  Alcotest.(check bool) "not everything dirty" true (p.Eco.dirty_fraction < 1.0);
  Alcotest.(check bool) "region inside die" true
    (Rect.contains_rect base.Design.die p.Eco.region);
  (* dirty and frozen partition the movables *)
  let movables = Array.length (Design.movable_ids p.Eco.applied.Eco.edited) in
  Alcotest.(check int) "partition" movables
    (Array.length p.Eco.dirty + Array.length p.Eco.frozen)

(* ----- differential: incremental == base on the clean region ----- *)

let test_differential_dp_mix_l () =
  let base = place "dp_mix_l" base_cfg in
  List.iter
    (fun seed ->
      let r = check_differential base (seeded_edits base seed) in
      Alcotest.(check bool)
        (Printf.sprintf "seed %d incremental" seed)
        false r.Eco.fallback)
    [ 1; 2 ]

let test_differential_xl10k () =
  match Dpp_gen.Xl.by_name "xl10k" with
  | None -> Alcotest.fail "xl10k preset missing"
  | Some d ->
    let cfg =
      { Config.baseline with Config.gp_rounds = 4; gp_inner_iters = 10; detail_passes = 1 }
    in
    let base = (Flow.run d cfg).Flow.design in
    let r = check_differential base (seeded_edits base 7) in
    Alcotest.(check bool) "incremental path" false r.Eco.fallback

let test_fallback_above_threshold () =
  let base = tiny () in
  let r = check_differential ~threshold:0.0 base (seeded_edits base 3) in
  Alcotest.(check bool) "fell back" true r.Eco.fallback

let test_eco_deterministic () =
  let base = tiny () in
  let edits = seeded_edits base 5 in
  let r1 = Eco.run ~base edits base_cfg in
  let r2 = Eco.run ~base edits base_cfg in
  Alcotest.(check bool) "bit-identical" true
    (r1.Eco.flow.Flow.design.Design.x = r2.Eco.flow.Flow.design.Design.x
    && r1.Eco.flow.Flow.design.Design.y = r2.Eco.flow.Flow.design.Design.y
    && r1.Eco.flow.Flow.design.Design.orient = r2.Eco.flow.Flow.design.Design.orient)

let suite =
  [
    Alcotest.test_case "apply preserves ids" `Quick test_apply_preserves_ids;
    Alcotest.test_case "apply resize+add" `Quick test_apply_resize_and_add;
    Alcotest.test_case "apply rewire" `Quick test_apply_rewire;
    Alcotest.test_case "apply rejects bad edits" `Quick test_apply_rejects_bad_edits;
    Alcotest.test_case "edit json roundtrip" `Quick test_edit_json_codec;
    Alcotest.test_case "plan bounds dirty set" `Quick test_plan_bounds_dirty_set;
    Alcotest.test_case "differential dp_mix_l" `Slow test_differential_dp_mix_l;
    Alcotest.test_case "differential xl10k" `Slow test_differential_xl10k;
    Alcotest.test_case "fallback above threshold" `Quick test_fallback_above_threshold;
    Alcotest.test_case "eco deterministic" `Quick test_eco_deterministic;
  ]
