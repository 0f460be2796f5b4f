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
  Eco.base_of_result (Flow.run d cfg)

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
     Eco.base_of_result (Flow.run d base_cfg))

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

let check_differential ?(threshold = Eco.default_threshold) (eco_base : Eco.base) edits =
  let r = Eco.run ~check:true ~threshold ~base:eco_base edits base_cfg in
  let base = eco_base.Eco.design in
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

let tiny () = (Lazy.force tiny_base).Eco.design

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

(* ----- apply against a Builder reference -----

   [Eco.apply] copies the base arrays; the reference below rebuilds the
   edited netlist through [Builder], adding the base cells in id order,
   the added cells after them, then every net with its pins.  The two
   must agree field for field: the numbering of ids, pins and each
   cell's pin list is part of the contract. *)

module Builder = Dpp_netlist.Builder

let builder_apply (base : Design.t) (edits : Eco.edit list) =
  let nc = Design.num_cells base and nn = Design.num_nets base in
  let site_round w =
    let s = base.Design.site_width in
    Float.max s (Float.round (w /. s) *. s)
  in
  let moves = Hashtbl.create 16 and resizes = Hashtbl.create 16 in
  let rewires = Hashtbl.create 16 in
  let adds = ref [] in
  List.iter
    (function
      | Eco.Move { cell; dx; dy } ->
        let px, py = try Hashtbl.find moves cell with Not_found -> (0.0, 0.0) in
        Hashtbl.replace moves cell (px +. dx, py +. dy)
      | Eco.Resize { cell; scale } ->
        let p = try Hashtbl.find resizes cell with Not_found -> 1.0 in
        Hashtbl.replace resizes cell (p *. scale)
      | Eco.Rewire { net; pin_index; to_cell } -> Hashtbl.replace rewires (net, pin_index) to_cell
      | Eco.Add { near; w; nets } -> adds := (near, w, nets) :: !adds)
    edits;
  let adds = List.rev !adds in
  let b =
    Builder.create ~name:base.Design.name ~die:base.Design.die
      ~row_height:base.Design.row_height ~site_width:base.Design.site_width ()
  in
  for i = 0 to nc - 1 do
    let c = Design.cell base i in
    let w =
      match Hashtbl.find_opt resizes i with
      | Some s -> site_round (c.Types.c_width *. s)
      | None -> c.Types.c_width
    in
    let id =
      Builder.add_cell b ~name:c.Types.c_name ~master:c.Types.c_master ~w ~h:c.Types.c_height
        ~kind:c.Types.c_kind
    in
    assert (id = i);
    let dx, dy = try Hashtbl.find moves i with Not_found -> (0.0, 0.0) in
    Builder.set_position b i ~x:(base.Design.x.(i) +. dx) ~y:(base.Design.y.(i) +. dy);
    Builder.set_orient b i base.Design.orient.(i)
  done;
  let added_ids =
    List.mapi
      (fun j (near, w, _) ->
        let id =
          Builder.add_cell b ~name:(Printf.sprintf "eco_add_%d" j) ~master:"eco"
            ~w:(site_round w) ~h:base.Design.row_height ~kind:Types.Movable
        in
        Builder.set_position b id ~x:base.Design.x.(near) ~y:base.Design.y.(near);
        id)
      adds
  in
  let extras = Array.make nn [] in
  List.iteri
    (fun j (_, _, nets) ->
      let id = List.nth added_ids j in
      List.iter (fun n -> extras.(n) <- id :: extras.(n)) nets)
    adds;
  Array.iteri (fun n e -> extras.(n) <- List.rev e) extras;
  for n = 0 to nn - 1 do
    let net = Design.net base n in
    let base_pins =
      Array.to_list
        (Array.mapi
           (fun k p ->
             let pin = Design.pin base p in
             match Hashtbl.find_opt rewires (n, k) with
             | Some to_cell -> Builder.add_pin b ~cell:to_cell ~dir:pin.Types.p_dir ()
             | None ->
               Builder.add_pin b ~cell:pin.Types.p_cell ~dir:pin.Types.p_dir ~dx:pin.Types.p_dx
                 ~dy:pin.Types.p_dy ())
           net.Types.n_pins)
    in
    let extra_pins = List.map (fun cell -> Builder.add_pin b ~cell ~dir:Types.Inout ()) extras.(n) in
    let id =
      Builder.add_net b ~name:net.Types.n_name ~weight:net.Types.n_weight (base_pins @ extra_pins)
    in
    assert (id = n)
  done;
  List.iter (Builder.add_group b) base.Design.groups;
  let edited = Builder.finish b in
  let sorted h = Array.of_list (List.sort_uniq compare h) in
  let keys h = Hashtbl.fold (fun k _ acc -> k :: acc) h [] in
  let seeds = keys moves @ keys resizes @ added_ids in
  {
    Eco.edited;
    seeds = sorted seeds;
    anchors =
      sorted
        (seeds
        @ Hashtbl.fold (fun _ c acc -> c :: acc) rewires []
        @ List.map (fun (near, _, _) -> near) adds);
    struct_nets =
      sorted
        (List.map fst (keys rewires)
        @ List.concat (List.mapi (fun n e -> if e = [] then [] else [ n ]) (Array.to_list extras)));
    moves = List.sort compare (Hashtbl.fold (fun c (dx, dy) acc -> (c, dx, dy) :: acc) moves []);
  }

let check_same_applied label (want : Eco.applied) (got : Eco.applied) =
  let w = want.Eco.edited and g = got.Eco.edited in
  let same what ok = Alcotest.(check bool) (Printf.sprintf "%s: %s" label what) true ok in
  same "cells" (w.Design.cells = g.Design.cells);
  same "pins" (w.Design.pins = g.Design.pins);
  same "nets" (w.Design.nets = g.Design.nets);
  same "positions" (w.Design.x = g.Design.x && w.Design.y = g.Design.y);
  same "orientations" (w.Design.orient = g.Design.orient);
  same "whole design" (w = g);
  Alcotest.(check (array int)) (label ^ ": seeds") want.Eco.seeds got.Eco.seeds;
  Alcotest.(check (array int)) (label ^ ": anchors") want.Eco.anchors got.Eco.anchors;
  Alcotest.(check (array int)) (label ^ ": struct_nets") want.Eco.struct_nets got.Eco.struct_nets;
  same "moves" (want.Eco.moves = got.Eco.moves)

(* 1-6 edits of every kind anywhere on the die: rewires of any pin onto
   any cell, adds on zero to three nets (repeats included) *)
let any_edits (d : Design.t) seed =
  let rng = Dpp_util.Rng.create seed in
  let module Rng = Dpp_util.Rng in
  let movable = Design.movable_ids d in
  let nc = Design.num_cells d and nn = Design.num_nets d in
  let site = d.Design.site_width and rh = d.Design.row_height in
  List.init (1 + Rng.int rng 6) (fun _ ->
      match Rng.int rng 4 with
      | 0 ->
        Eco.Move
          {
            cell = Rng.int rng nc;
            dx = float_of_int (Rng.int_in rng (-4) 4) *. site;
            dy = float_of_int (Rng.int_in rng (-1) 1) *. rh;
          }
      | 1 ->
        Eco.Resize
          {
            cell = movable.(Rng.int rng (Array.length movable));
            scale = 0.5 +. (0.25 *. float_of_int (Rng.int rng 6));
          }
      | 2 ->
        let net = Rng.int rng nn in
        Eco.Rewire
          {
            net;
            pin_index = Rng.int rng (Array.length (Design.net d net).Types.n_pins);
            to_cell = Rng.int rng nc;
          }
      | _ ->
        Eco.Add
          {
            near = Rng.int rng nc;
            w = float_of_int (1 + Rng.int rng 4) *. site;
            nets = List.init (Rng.int rng 4) (fun _ -> Rng.int rng nn);
          })

let bookshelf_base =
  lazy
    (let dir = Filename.concat (Filename.get_temp_dir_name ()) "dpp_eco_test" in
     if not (Sys.file_exists dir) then Unix.mkdir dir 0o755;
     let basename = Filename.concat dir "eco_tiny" in
     Dpp_netlist.Bookshelf.write (tiny ()) ~basename;
     Dpp_netlist.Bookshelf.read ~basename)

let test_apply_matches_builder () =
  let compose = tiny () and bookshelf = Lazy.force bookshelf_base in
  List.iter
    (fun (name, (base : Design.t)) ->
      let m = (Design.movable_ids base).(2) and other = (Design.movable_ids base).(5) in
      let net = (Design.pin base (Design.cell base other).Types.c_pins.(0)).Types.p_net in
      let fixed =
        [
          (* a rewire onto a cell the same list resizes *)
          ( "rewire onto a resized cell",
            [ Eco.Resize { cell = m; scale = 1.75 }; Eco.Rewire { net; pin_index = 0; to_cell = m } ] );
          (* the second rewire of a pin wins *)
          ( "two rewires of one pin",
            [
              Eco.Rewire { net; pin_index = 0; to_cell = other };
              Eco.Rewire { net; pin_index = 0; to_cell = m };
            ] );
          ( "an add on several nets",
            [ Eco.Add { near = m; w = 3.0 *. base.Design.site_width; nets = [ net; 0; 1; net ] } ] );
        ]
      in
      let seeded = List.init 40 (fun k -> Printf.sprintf "seed %d" k, any_edits base (100 + k)) in
      List.iter
        (fun (label, edits) ->
          check_same_applied
            (Printf.sprintf "%s base, %s" name label)
            (builder_apply base edits) (Eco.apply base edits))
        (fixed @ seeded))
    [ "Compose", compose; "Bookshelf", bookshelf ]

let test_apply_rejects_taken_name () =
  let base = tiny () in
  let cells = Array.copy base.Design.cells in
  cells.(0) <- { (cells.(0)) with Types.c_name = "eco_add_0" };
  let base = { base with Design.cells } in
  let add = Eco.Add { near = 1; w = base.Design.site_width; nets = [ 0 ] } in
  Alcotest.(check bool) "reference raises" true
    (match builder_apply base [ add ] with exception Invalid_argument _ -> true | _ -> false);
  Alcotest.(check bool) "apply raises" true
    (match Eco.apply base [ add ] with exception Invalid_argument _ -> true | _ -> false);
  Alcotest.(check bool) "no add, no clash" true
    (match Eco.apply base [ Eco.Move { cell = 1; dx = 0.0; dy = 0.0 } ] with
    | (_ : Eco.applied) -> true
    | exception Invalid_argument _ -> false)

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
  let a = Eco.apply base edits in
  let p = Eco.plan (Flow.context a.Eco.edited base_cfg) a in
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
      let r = check_differential base (seeded_edits base.Eco.design seed) in
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
    let base = Eco.base_of_result (Flow.run d cfg) in
    let r = check_differential base (seeded_edits base.Eco.design 7) in
    Alcotest.(check bool) "incremental path" false r.Eco.fallback

let test_fallback_above_threshold () =
  let base = Lazy.force tiny_base in
  let r = check_differential ~threshold:0.0 base (seeded_edits base.Eco.design 3) in
  Alcotest.(check bool) "fell back" true r.Eco.fallback

(* The fallback runs the full stage list on the op's own context: its
   result is the one a from-scratch flow gives on the edited design. *)
let test_fallback_matches_flow () =
  let base = Lazy.force tiny_base in
  let edits = seeded_edits base.Eco.design 3 in
  let r = Eco.run ~threshold:0.0 ~base edits base_cfg in
  Alcotest.(check bool) "fell back" true r.Eco.fallback;
  let full = Flow.run (Eco.apply base.Eco.design edits).Eco.edited base_cfg in
  let e = r.Eco.flow.Flow.design and f = full.Flow.design in
  Alcotest.(check bool) "x" true (Array.for_all2 Float.equal e.Design.x f.Design.x);
  Alcotest.(check bool) "y" true (Array.for_all2 Float.equal e.Design.y f.Design.y);
  Alcotest.(check bool) "orient" true (Array.for_all2 Orient.equal e.Design.orient f.Design.orient);
  Alcotest.(check bool) "hpwl_final" true (Float.equal r.Eco.flow.Flow.hpwl_final full.Flow.hpwl_final);
  Alcotest.(check bool) "steiner_final" true
    (Float.equal r.Eco.flow.Flow.steiner_final full.Flow.steiner_final)

let test_eco_deterministic () =
  let base = Lazy.force tiny_base in
  let edits = seeded_edits base.Eco.design 5 in
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
    Alcotest.test_case "apply matches the builder reference" `Quick test_apply_matches_builder;
    Alcotest.test_case "apply rejects a taken added name" `Quick test_apply_rejects_taken_name;
    Alcotest.test_case "edit json roundtrip" `Quick test_edit_json_codec;
    Alcotest.test_case "plan bounds dirty set" `Quick test_plan_bounds_dirty_set;
    Alcotest.test_case "differential dp_mix_l" `Slow test_differential_dp_mix_l;
    Alcotest.test_case "differential xl10k" `Slow test_differential_xl10k;
    Alcotest.test_case "fallback above threshold" `Quick test_fallback_above_threshold;
    Alcotest.test_case "fallback matches the full flow" `Quick test_fallback_matches_flow;
    Alcotest.test_case "eco deterministic" `Quick test_eco_deterministic;
  ]
