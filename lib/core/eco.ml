module Design = Dpp_netlist.Design
module Types = Dpp_netlist.Types
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

(* ----- edit application: copy the netlist with edits folded in -----

   The edited design is built straight from the base arrays.  Cell and
   net ids are preserved (cells added by [Add] edits take the ids after
   the base range), so group references stay valid.  Pins are numbered
   afresh in net order, each net's added pins after its base pins, and
   every cell lists its pins in pin-id order: the numbering a
   {!Dpp_netlist.Builder} gives when cells are added in id order and
   then nets with their pins in net order. *)

let site_round (d : Design.t) w =
  let s = d.Design.site_width in
  Float.max s (Float.round (w /. s) *. s)

let added_name j = Printf.sprintf "eco_add_%d" j

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
  let adds = Array.of_list (List.rev !adds) in
  let nadd = Array.length adds in
  let ncells = nc + nadd in
  (* base names are unique already; only the added names can collide *)
  if nadd > 0 then begin
    let taken = Hashtbl.create 8 in
    Array.iter
      (fun (c : Types.cell) ->
        if String.starts_with ~prefix:"eco_add_" c.Types.c_name then
          Hashtbl.replace taken c.Types.c_name ())
      base.Design.cells;
    for j = 0 to nadd - 1 do
      if Hashtbl.mem taken (added_name j) then
        invalid_arg (Printf.sprintf "Eco.apply: duplicate cell name %S" (added_name j))
    done
  end;
  let width =
    Array.init ncells (fun i ->
        if i >= nc then
          let _, w, _ = adds.(i - nc) in
          site_round base w
        else
          let w = (Design.cell base i).Types.c_width in
          match Hashtbl.find_opt resizes i with Some s -> site_round base (w *. s) | None -> w)
  in
  let height i =
    if i >= nc then base.Design.row_height else (Design.cell base i).Types.c_height
  in
  (* per base pin: the cell a rewire moves it to, or -1 *)
  let target = Array.make (Design.num_pins base) (-1) in
  Hashtbl.iter
    (fun (n, k) to_cell -> target.((Design.net base n).Types.n_pins.(k)) <- to_cell)
    rewires;
  (* per-net extra pins contributed by added cells, in add order *)
  let extras = Array.make nn [] in
  Array.iteri
    (fun j (_, _, nets) -> List.iter (fun n -> extras.(n) <- (nc + j) :: extras.(n)) nets)
    adds;
  Array.iteri (fun n e -> extras.(n) <- List.rev e) extras;
  let npins =
    Array.fold_left (fun acc (net : Types.net) -> acc + Array.length net.Types.n_pins) 0
      base.Design.nets
    + Array.fold_left (fun acc e -> acc + List.length e) 0 extras
  in
  let pins =
    Array.make npins
      { Types.p_id = -1; p_cell = -1; p_net = -1; p_dir = Types.Inout; p_dx = 0.0; p_dy = 0.0 }
  in
  let next = ref 0 in
  let push ~net ~cell ~dir ~dx ~dy =
    pins.(!next) <- { Types.p_id = !next; p_cell = cell; p_net = net; p_dir = dir; p_dx = dx; p_dy = dy };
    incr next
  in
  (* rewired and added pins sit at the centre of their (resized) cell: a
     rewired pin's old offsets are relative to another cell's outline *)
  let centred ~net ~cell ~dir =
    push ~net ~cell ~dir ~dx:(width.(cell) /. 2.0) ~dy:(height cell /. 2.0)
  in
  (* each net's pins take the next consecutive ids *)
  let nets =
    Array.init nn (fun n ->
        let net = Design.net base n in
        let first = !next in
        Array.iter
          (fun p ->
            let pin = Design.pin base p in
            if target.(p) >= 0 then centred ~net:n ~cell:target.(p) ~dir:pin.Types.p_dir
            else
              push ~net:n ~cell:pin.Types.p_cell ~dir:pin.Types.p_dir ~dx:pin.Types.p_dx
                ~dy:pin.Types.p_dy)
          net.Types.n_pins;
        List.iter (fun cell -> centred ~net:n ~cell ~dir:Types.Inout) extras.(n);
        { net with Types.n_id = n; n_pins = Array.init (!next - first) (fun k -> first + k) })
  in
  (* each cell's pins in pin-id order: a counting sort over the owners *)
  let count = Array.make ncells 0 in
  Array.iter (fun (p : Types.pin) -> count.(p.Types.p_cell) <- count.(p.Types.p_cell) + 1) pins;
  let c_pins = Array.map (fun k -> Array.make k 0) count in
  Array.fill count 0 ncells 0;
  Array.iter
    (fun (p : Types.pin) ->
      let c = p.Types.p_cell in
      c_pins.(c).(count.(c)) <- p.Types.p_id;
      count.(c) <- count.(c) + 1)
    pins;
  let cells =
    Array.init ncells (fun i ->
        if i < nc then
          { (Design.cell base i) with Types.c_id = i; c_width = width.(i); c_pins = c_pins.(i) }
        else
          { Types.c_id = i; c_name = added_name (i - nc); c_master = "eco"; c_width = width.(i);
            c_height = base.Design.row_height; c_kind = Types.Movable; c_pins = c_pins.(i) })
  in
  (* moved cells shift by their net displacement, added ones start at
     their [near] cell's position *)
  let x = Array.make ncells 0.0 and y = Array.make ncells 0.0 in
  for i = 0 to ncells - 1 do
    if i < nc then begin
      let dx, dy = Option.value (Hashtbl.find_opt moves i) ~default:(0.0, 0.0) in
      x.(i) <- base.Design.x.(i) +. dx;
      y.(i) <- base.Design.y.(i) +. dy
    end
    else begin
      let near, _, _ = adds.(i - nc) in
      x.(i) <- base.Design.x.(near);
      y.(i) <- base.Design.y.(near)
    end
  done;
  let orient =
    Array.init ncells (fun i -> if i < nc then base.Design.orient.(i) else Dpp_geom.Orient.N)
  in
  let edited = { base with Design.cells; nets; pins; x; y; orient } in
  (* only cells whose outline or position changed {e must} re-place:
     moved, resized, added.  Rewire endpoints keep a legal placement — the
     affected net reaches the plan through [struct_nets] instead, so
     distant fanout does not inflate the dirty region *)
  let seed_set = Hashtbl.create 64 in
  let seed c = Hashtbl.replace seed_set c () in
  Hashtbl.iter (fun c _ -> seed c) moves;
  Hashtbl.iter (fun c _ -> seed c) resizes;
  for j = 0 to nadd - 1 do seed (nc + j) done;
  (* anchors bound the dirty region's hull; rewire targets and add sites
     belong there even though they are not forced to re-place *)
  let anchor_set = Hashtbl.copy seed_set in
  let anchor c = Hashtbl.replace anchor_set c () in
  Hashtbl.iter (fun _ to_cell -> anchor to_cell) rewires;
  Array.iter (fun (near, _, _) -> anchor near) adds;
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

let plan (ctx : Ctx.t) (a : applied) =
  let d = ctx.Ctx.design in
  let rh = d.Design.row_height in
  let n = Design.num_cells d in
  (* replay the coordinate edits through a netbox over the context's pin
     view to learn which net boxes actually moved: this is the
     [Netbox.dirty_nets] delta export *)
  let pins = ctx.Ctx.pins in
  let cx = ctx.Ctx.cx and cy = ctx.Ctx.cy in
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

type base = { design : Design.t; steiner : Dpp_steiner.Rsmt.nets }

let base_of_result (r : Flow.result) = { design = r.Flow.design; steiner = r.Flow.steiner_nets }

let run ?observer ?check ?(threshold = default_threshold) ~base edits (cfg : Config.t) =
  let a = apply base.design edits in
  (* one validation and one soa/pins derivation per op: the plan reads the
     same context the stages then run on *)
  let ctx = Flow.context a.edited cfg in
  let p = plan ctx a in
  let fallback = p.dirty_fraction > threshold in
  let stages =
    if fallback then begin
      Log.info (fun m ->
          m "dirty fraction %.3f > %.3f: falling back to the full flow" p.dirty_fraction
            threshold);
      Flow.stages cfg
    end
    else begin
      Log.info (fun m ->
          m "incremental: %d dirty cells (%.3f), region %.0fx%.0f"
            (Array.length p.dirty) p.dirty_fraction (Rect.width p.region)
            (Rect.height p.region));
      Ctx.set_skip ctx p.frozen;
      Ctx.set_flip_skip ctx p.frozen;
      ctx.Ctx.bound <- Some p.region;
      ctx.Ctx.obstacles <- p.obstacles;
      ctx.Ctx.steiner <- base.steiner;
      Flow.eco_stages
    end
  in
  { flow = Flow.run_ctx ?observer ?check ~stages ctx; plan = p; fallback }

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
