module Design = Dpp_netlist.Design
module Builder = Dpp_netlist.Builder
module Types = Dpp_netlist.Types
module Pins = Dpp_wirelen.Pins
module Netbox = Dpp_wirelen.Netbox
module Rect = Dpp_geom.Rect
module Json = Dpp_report.Json

let src = Logs.Src.create "dpp.eco" ~doc:"incremental ECO re-placement"

module Log = (val Logs.src_log src : Logs.LOG)

type edit =
  | Move of { cell : int; dx : float; dy : float }
  | Resize of { cell : int; scale : float }
  | Rewire of { net : int; pin_index : int; to_cell : int }
  | Add of { near : int; w : float; nets : int list }

(* ----- JSON codec (shared by the serve protocol and the fuzz replay) ----- *)

let edit_to_json = function
  | Move { cell; dx; dy } ->
    Json.Obj
      [ "op", Json.Str "move"; "cell", Json.Num (float_of_int cell);
        "dx", Json.Num dx; "dy", Json.Num dy ]
  | Resize { cell; scale } ->
    Json.Obj
      [ "op", Json.Str "resize"; "cell", Json.Num (float_of_int cell);
        "scale", Json.Num scale ]
  | Rewire { net; pin_index; to_cell } ->
    Json.Obj
      [ "op", Json.Str "rewire"; "net", Json.Num (float_of_int net);
        "pin", Json.Num (float_of_int pin_index);
        "cell", Json.Num (float_of_int to_cell) ]
  | Add { near; w; nets } ->
    Json.Obj
      [ "op", Json.Str "add"; "near", Json.Num (float_of_int near); "w", Json.Num w;
        "nets", Json.Arr (List.map (fun n -> Json.Num (float_of_int n)) nets) ]

let num key v =
  match Json.member key v with
  | Some (Json.Num f) -> f
  | _ -> raise (Json.Parse_error (Printf.sprintf "edit: missing number %S" key))

let int key v = int_of_float (num key v)

let edit_of_json v =
  match Json.member "op" v with
  | Some (Json.Str "move") -> Move { cell = int "cell" v; dx = num "dx" v; dy = num "dy" v }
  | Some (Json.Str "resize") -> Resize { cell = int "cell" v; scale = num "scale" v }
  | Some (Json.Str "rewire") ->
    Rewire { net = int "net" v; pin_index = int "pin" v; to_cell = int "cell" v }
  | Some (Json.Str "add") ->
    Add
      {
        near = int "near" v;
        w = num "w" v;
        nets =
          (match Json.member "nets" v with
          | Some (Json.Arr xs) -> List.map (fun x -> int_of_float (Json.to_float x)) xs
          | _ -> []);
      }
  | _ -> raise (Json.Parse_error "edit: missing or unknown \"op\"")

let edits_to_json edits = Json.Arr (List.map edit_to_json edits)

let edits_of_json = function
  | Json.Arr xs -> List.map edit_of_json xs
  | _ -> raise (Json.Parse_error "edits: expected an array")

(* ----- edit application: rebuild the netlist with edits folded in -----

   Ids are preserved for every base entity (cells, nets, and group
   references stay valid) because the builder hands them out in creation
   order; cells added by [Add] edits take the ids after the base range. *)

let site_round (d : Design.t) w =
  let s = d.Design.site_width in
  Float.max s (Float.round (w /. s) *. s)

type applied = {
  edited : Design.t;
  seeds : int array;  (** cells that must re-place: moved, resized, added *)
  anchors : int array;  (** seeds plus rewire targets and add sites *)
  struct_nets : int array;  (** nets rewired or grown by an added pin *)
  moves : (int * float * float) list;  (** cell, dx, dy — net displacement *)
}

let apply (base : Design.t) (edits : edit list) =
  if edits = [] then invalid_arg "Eco.apply: empty edit list";
  let nc = Design.num_cells base and nn = Design.num_nets base in
  let check_cell c ctx =
    if c < 0 || c >= nc then invalid_arg (Printf.sprintf "Eco.apply: %s cell %d out of range" ctx c)
  in
  let moves = Hashtbl.create 16 and resizes = Hashtbl.create 16 in
  let rewires = Hashtbl.create 16 in
  let adds = ref [] in
  List.iter
    (fun e ->
      match e with
      | Move { cell; dx; dy } ->
        check_cell cell "move";
        let px, py = try Hashtbl.find moves cell with Not_found -> (0.0, 0.0) in
        Hashtbl.replace moves cell (px +. dx, py +. dy)
      | Resize { cell; scale } ->
        check_cell cell "resize";
        if (Design.cell base cell).Types.c_kind <> Types.Movable then
          invalid_arg "Eco.apply: resize of a non-movable cell";
        if not (Float.is_finite scale) || scale <= 0.0 then
          invalid_arg "Eco.apply: non-positive resize scale";
        let p = try Hashtbl.find resizes cell with Not_found -> 1.0 in
        Hashtbl.replace resizes cell (p *. scale)
      | Rewire { net; pin_index; to_cell } ->
        if net < 0 || net >= nn then invalid_arg "Eco.apply: rewire net out of range";
        check_cell to_cell "rewire";
        let np = Array.length (Design.net base net).Types.n_pins in
        if pin_index < 0 || pin_index >= np then
          invalid_arg "Eco.apply: rewire pin index out of range";
        Hashtbl.replace rewires (net, pin_index) to_cell
      | Add { near; w; nets } ->
        check_cell near "add";
        if not (Float.is_finite w) || w <= 0.0 then
          invalid_arg "Eco.apply: non-positive added-cell width";
        List.iter
          (fun n -> if n < 0 || n >= nn then invalid_arg "Eco.apply: add net out of range")
          nets;
        adds := (near, w, nets) :: !adds)
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
      | Some s -> site_round base (c.Types.c_width *. s)
      | None -> c.Types.c_width
    in
    let id =
      Builder.add_cell b ~name:c.Types.c_name ~master:c.Types.c_master ~w
        ~h:c.Types.c_height ~kind:c.Types.c_kind
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
          Builder.add_cell b
            ~name:(Printf.sprintf "eco_add_%d" j)
            ~master:"eco" ~w:(site_round base w) ~h:base.Design.row_height
            ~kind:Types.Movable
        in
        Builder.set_position b id ~x:base.Design.x.(near) ~y:base.Design.y.(near);
        id)
      adds
  in
  (* per-net extra pins contributed by added cells *)
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
             | Some to_cell ->
               (* the pin jumps to another cell: old offsets are relative to
                  the old master's outline, so the default (center) is used *)
               Builder.add_pin b ~cell:to_cell ~dir:pin.Types.p_dir ()
             | None ->
               Builder.add_pin b ~cell:pin.Types.p_cell ~dir:pin.Types.p_dir
                 ~dx:pin.Types.p_dx ~dy:pin.Types.p_dy ())
           net.Types.n_pins)
    in
    let extra_pins =
      List.map (fun cell -> Builder.add_pin b ~cell ~dir:Types.Inout ()) extras.(n)
    in
    let id = Builder.add_net b ~name:net.Types.n_name ~weight:net.Types.n_weight
        (base_pins @ extra_pins)
    in
    assert (id = n)
  done;
  List.iter (Builder.add_group b) base.Design.groups;
  let edited = Builder.finish b in
  (* only cells whose outline or position changed {e must} re-place:
     moved, resized, added.  Rewire endpoints keep a legal placement — the
     affected net reaches the plan through [struct_nets] instead, so
     distant fanout does not inflate the dirty region *)
  let seed_set = Hashtbl.create 64 in
  let seed c = Hashtbl.replace seed_set c () in
  Hashtbl.iter (fun c _ -> seed c) moves;
  Hashtbl.iter (fun c _ -> seed c) resizes;
  List.iter seed added_ids;
  (* anchors bound the dirty region's hull; rewire targets and add sites
     belong there even though they are not forced to re-place *)
  let anchor_set = Hashtbl.copy seed_set in
  let anchor c = Hashtbl.replace anchor_set c () in
  Hashtbl.iter (fun _ to_cell -> anchor to_cell) rewires;
  List.iter (fun (near, _, _) -> anchor near) adds;
  let snet_set = Hashtbl.create 16 in
  Hashtbl.iter (fun (n, _) _ -> Hashtbl.replace snet_set n ()) rewires;
  Array.iteri (fun n e -> if e <> [] then Hashtbl.replace snet_set n ()) extras;
  let sorted_keys h = List.sort compare (Hashtbl.fold (fun k () acc -> k :: acc) h []) in
  {
    edited;
    seeds = Array.of_list (sorted_keys seed_set);
    anchors = Array.of_list (sorted_keys anchor_set);
    struct_nets = Array.of_list (sorted_keys snet_set);
    moves =
      List.sort compare
        (Hashtbl.fold (fun c (dx, dy) acc -> (c, dx, dy) :: acc) moves []);
  }

(* ----- dirty-region planning ----- *)

type plan = {
  applied : applied;
  region : Rect.t;  (** row-aligned dirty region, clipped to the die *)
  dirty : int array;  (** movable single-row cells that get re-placed *)
  frozen : int array;  (** movable cells pinned at their base placement *)
  obstacles : Rect.t list;  (** frozen outlines the bounded stages pack around *)
  dirty_fraction : float;  (** |dirty| / movables of the edited design *)
}

let row_align (d : Design.t) (r : Rect.t) =
  let die = d.Design.die in
  let rh = d.Design.row_height in
  let yl = Design.row_y d (Design.row_of_y d (r.Rect.yl +. 1e-9)) in
  let yh = Design.row_y d (Design.row_of_y d (r.Rect.yh -. 1e-9)) +. rh in
  Rect.make
    ~xl:(Float.max die.Rect.xl r.Rect.xl)
    ~yl:(Float.max die.Rect.yl yl)
    ~xh:(Float.min die.Rect.xh r.Rect.xh)
    ~yh:(Float.min die.Rect.yh yh)

let y_overlaps (region : Rect.t) (r : Rect.t) =
  r.Rect.yl < region.Rect.yh -. 1e-9 && r.Rect.yh > region.Rect.yl +. 1e-9

let plan (base : Design.t) edits =
  let a = apply base edits in
  let d = a.edited in
  let rh = d.Design.row_height in
  let n = Design.num_cells d in
  (* replay the coordinate edits through a netbox to learn which net boxes
     actually moved: this is the [Netbox.dirty_nets] delta export *)
  let pins = Pins.build d in
  let cx, cy = Pins.centers_of_design d in
  let nb_cx = Array.copy cx and nb_cy = Array.copy cy in
  List.iter
    (fun (i, dx, dy) ->
      nb_cx.(i) <- cx.(i) -. dx;
      nb_cy.(i) <- cy.(i) -. dy)
    a.moves;
  let nb = Netbox.build pins ~cx:nb_cx ~cy:nb_cy in
  List.iter (fun (i, dx, dy) -> Netbox.move_cell nb i (nb_cx.(i) +. dx) (nb_cy.(i) +. dy)) a.moves;
  Netbox.commit nb;
  let moved_nets = Netbox.dirty_nets nb in
  (* hull of the edit sites: anchor cells at both their old and new outline *)
  let hull = ref None in
  let grow (r : Rect.t) =
    hull := Some (match !hull with None -> r | Some h -> Rect.hull h r)
  in
  Array.iter
    (fun i ->
      let r = Design.cell_rect d i in
      grow r;
      match List.find_opt (fun (c, _, _) -> c = i) a.moves with
      | Some (_, dx, dy) -> grow (Rect.translate r ~dx:(-.dx) ~dy:(-.dy))
      | None -> ())
    a.anchors;
  let seed_hull =
    match !hull with Some r -> r | None -> Design.cell_rect d 0
  in
  (* moved/rewired net boxes extend the region, but only within a bounded
     neighbourhood of the edit sites: a die-spanning net (clock-like
     fanout) must not drag the whole die into the region — its far-away
     pins belong to frozen cells anyway *)
  let neighbourhood = Rect.expand seed_hull (8.0 *. rh) in
  let grow_net n =
    let deg = Array.length (Design.net d n).Types.n_pins in
    if deg >= 2 then begin
      let xmin, xmax, ymin, ymax = Netbox.net_box nb n in
      let box = Rect.make ~xl:xmin ~yl:ymin ~xh:xmax ~yh:ymax in
      match Rect.intersection box neighbourhood with
      | Some clipped -> grow clipped
      | None -> ()
    end
  in
  Array.iter grow_net moved_nets;
  Array.iter grow_net a.struct_nets;
  let seed_rect = match !hull with Some r -> r | None -> seed_hull in
  let movable = Design.movable_ids d in
  let single_row i = d.Design.cells.(i).Types.c_height <= rh +. 1e-9 in
  let is_seed = Hashtbl.create 64 in
  Array.iter (fun i -> Hashtbl.replace is_seed i ()) a.seeds;
  (* grow the region until the displaced cells fit with slack (cells of
     the dirty rows that stay clean act as hard obstacles, so the dirty
     set needs visibly more free area than its own footprint) *)
  (* only cells fully contained in the region are re-placed; a cell
     straddling the boundary stays frozen and acts as an obstacle, so the
     region's free area and the dirty footprint stay comparable (counting
     straddlers dirty makes the capacity ratio track the local density
     and the region balloons to the die on dense placements) *)
  let classify region =
    let inner = Rect.expand region 1e-6 in
    let dirty = ref [] and frozen = ref [] in
    Array.iter
      (fun i ->
        let eligible =
          single_row i
          && (Hashtbl.mem is_seed i || Rect.contains_rect inner (Design.cell_rect d i))
        in
        if eligible then dirty := i :: !dirty else frozen := i :: !frozen)
      movable;
    Array.of_list (List.rev !dirty), Array.of_list (List.rev !frozen)
  in
  let capacity region dirty frozen =
    let need = Array.fold_left (fun acc i ->
        acc +. (d.Design.cells.(i).Types.c_width *. d.Design.cells.(i).Types.c_height))
        0.0 dirty
    in
    let blocked = ref 0.0 in
    let count r = blocked := !blocked +. Rect.overlap_area r region in
    Array.iter (fun i -> count (Design.cell_rect d i)) frozen;
    for i = 0 to n - 1 do
      if Types.is_fixed_kind d.Design.cells.(i).Types.c_kind then
        count (Design.cell_rect d i)
    done;
    need, Rect.area region -. !blocked
  in
  (* initial margin: two rows around the disturbed hull *)
  let region = ref (row_align d (Rect.expand seed_rect (2.0 *. rh))) in
  let dirty = ref [||] and frozen = ref [||] in
  let stop = ref false in
  while not !stop do
    let dt, fr = classify !region in
    dirty := dt;
    frozen := fr;
    let need, free = capacity !region dt fr in
    Log.debug (fun m ->
        m "region %.0fx%.0f: dirty=%d need=%.0f free=%.0f" (Rect.width !region)
          (Rect.height !region) (Array.length dt) need free);
    (* legalized placements are locally near-solid, so a multiplicative
       slack would balloon the region to the die; the dirty cells came out
       of this very area, so fitting back needs only their own footprint
       plus the edits' net new demand (already inside [need]) *)
    if free >= 1.0005 *. need || Rect.equal !region (row_align d d.Design.die) then
      stop := true
    else region := row_align d (Rect.expand !region (2.0 *. rh))
  done;
  let region = !region and dirty = !dirty and frozen = !frozen in
  (* frozen movables sharing the region's rows bound what legalization and
     abacus may pack into those rows *)
  let frozen_obstacles =
    Array.to_list frozen
    |> List.filter_map (fun i ->
           let r = Design.cell_rect d i in
           if y_overlaps region r then Some r else None)
  in
  let movables = Float.max 1.0 (float_of_int (Array.length movable)) in
  {
    applied = a;
    region;
    dirty;
    frozen;
    obstacles = frozen_obstacles;
    dirty_fraction = float_of_int (Array.length dirty) /. movables;
  }

(* ----- the incremental flow ----- *)

type result = {
  flow : Flow.result;
  plan : plan;
  fallback : bool;  (** true when the dirty fraction forced a full re-place *)
}

let default_threshold = 0.25

let run ?observer ?check ?(threshold = default_threshold) ~base edits (cfg : Config.t) =
  let p = plan base edits in
  if p.dirty_fraction > threshold then begin
    Log.info (fun m ->
        m "dirty fraction %.3f > %.3f: falling back to the full flow" p.dirty_fraction
          threshold);
    let flow = Flow.run ?observer ?check p.applied.edited cfg in
    { flow; plan = p; fallback = true }
  end
  else begin
    Log.info (fun m ->
        m "incremental: %d dirty cells (%.3f), region %.0fx%.0f"
          (Array.length p.dirty) p.dirty_fraction (Rect.width p.region)
          (Rect.height p.region));
    let prepare (ctx : Ctx.t) =
      Ctx.set_skip ctx p.frozen;
      Ctx.set_flip_skip ctx p.frozen;
      ctx.Ctx.bound <- Some p.region;
      ctx.Ctx.obstacles <- p.obstacles
    in
    let flow =
      Flow.run_stages ~prepare ?observer ?check ~stages:Flow.eco_stages p.applied.edited cfg
    in
    { flow; plan = p; fallback = false }
  end

(* ----- seeded edit generation (bench, fuzz, and smoke-test traffic) ----- *)

let random_edits ?(ops = 4) ~seed (d : Design.t) =
  let rng = Dpp_util.Rng.create seed in
  let rh = d.Design.row_height and site = d.Design.site_width in
  let single_row =
    Design.movable_ids d |> Array.to_list
    |> List.filter (fun i -> (Design.cell d i).Types.c_height <= rh +. 1e-9)
    |> Array.of_list
  in
  if Array.length single_row = 0 then invalid_arg "random_edits: no single-row movable cells";
  let pick a = a.(Dpp_util.Rng.int rng (Array.length a)) in
  let anchor = pick single_row in
  (* cluster every edit around one anchor so the dirty region stays local *)
  let near =
    let l =
      List.filter
        (fun i ->
          abs_float (Design.cell_center_x d i -. Design.cell_center_x d anchor)
          < Rect.width d.Design.die /. 8.0
          && abs_float (Design.cell_center_y d i -. Design.cell_center_y d anchor) < 3.0 *. rh)
        (Array.to_list single_row)
    in
    if l = [] then [| anchor |] else Array.of_list l
  in
  let nets_of c =
    (Design.cell d c).Types.c_pins |> Array.to_list
    |> List.filter_map (fun p ->
           let n = (Design.pin d p).Types.p_net in
           if n >= 0 then Some n else None)
  in
  List.init (max 1 ops) (fun k ->
      match k mod 4 with
      | 0 ->
        Move
          {
            cell = (if k = 0 then anchor else pick near);
            dx = float_of_int (1 + Dpp_util.Rng.int rng 4) *. site;
            dy = (if Dpp_util.Rng.int rng 2 = 0 then rh else -.rh);
          }
      | 1 -> Resize { cell = pick near; scale = 1.0 +. (0.25 *. float_of_int (1 + Dpp_util.Rng.int rng 2)) }
      | 2 ->
        let c = pick near in
        let nets = match nets_of c with n :: _ -> [ n ] | [] -> [] in
        Add { near = c; w = float_of_int (2 + Dpp_util.Rng.int rng 3) *. site; nets }
      | _ -> (
        let c = pick near in
        match nets_of c with
        | n :: _ -> Rewire { net = n; pin_index = 0; to_cell = pick near }
        | [] -> Move { cell = c; dx = site; dy = 0.0 }))
