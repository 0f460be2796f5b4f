module Rng = Dpp_util.Rng
module Rect = Dpp_geom.Rect
module Types = Dpp_netlist.Types
module Design = Dpp_netlist.Design
module Builder = Dpp_netlist.Builder
module Soa = Dpp_netlist.Soa
module Dgroup = Dpp_structure.Dgroup

let src = Logs.Src.create "dpp.coarsen" ~doc:"multilevel coarsening"

module Log = (val Logs.src_log src : Logs.LOG)

type level = {
  fine : Design.t;
  coarse : Design.t;
  coarse_soa : Soa.t;
  cluster_of : int array;
  members : int array array;
  group_of : (int * Dgroup.t) list;
  protected : bool array;
}

(* nets wider than this are control/clock-like: they connect everything
   to everything and would make every pair look like a heavy edge *)
let max_net_degree = 16

let cell_area (d : Design.t) i =
  let c = Design.cell d i in
  c.Types.c_width *. c.Types.c_height

(* Merged clusters keep the exact member area; the shape spreads over
   just enough rows that no cluster grows wider than half the die. *)
let cluster_shape (d : Design.t) ~area =
  let die_w = Rect.width d.Design.die in
  let rh = d.Design.row_height in
  let rows = max 1 (int_of_float (ceil (area /. rh /. (0.5 *. die_w)))) in
  let h = float_of_int rows *. rh in
  area /. h, h

let coarsen_once ~rng ~groups ~protect ~(soa : Soa.t) (fine : Design.t) =
  let nc = Design.num_cells fine in
  let cluster_of = Array.make nc (-1) in
  let next = ref 0 in
  let new_cluster () =
    let c = !next in
    incr next;
    c
  in
  (* 1. structure-aware seeds: each datapath group collapses into one
     cluster, so a bit-slice is never split across clusters *)
  let group_of = ref [] in
  List.iter
    (fun (dg : Dgroup.t) ->
      let eligible =
        Array.length dg.Dgroup.cells > 0
        && Array.for_all
             (fun c ->
               cluster_of.(c) < 0
               && (not (protect c))
               && (Design.cell fine c).Types.c_kind = Types.Movable)
             dg.Dgroup.cells
      in
      if eligible then begin
        let cid = new_cluster () in
        Array.iter (fun c -> cluster_of.(c) <- cid) dg.Dgroup.cells;
        group_of := (cid, dg) :: !group_of
      end
      else
        Log.debug (fun m ->
            m "group with %d cells not clustered (overlap or fixed member)"
              (Array.length dg.Dgroup.cells)))
    groups;
  let group_of = List.rev !group_of in
  (* 2. heavy-edge matching over the remaining movables, visited in a
     seeded shuffle; ties break on the lower cell id so the result is a
     pure function of (design, groups, seed) *)
  let movable = Design.movable_ids fine in
  let free = Array.of_list (List.filter (fun i -> cluster_of.(i) < 0) (Array.to_list movable)) in
  let mean_area =
    if Array.length movable = 0 then 1.0
    else
      Array.fold_left (fun acc i -> acc +. cell_area fine i) 0.0 movable
      /. float_of_int (Array.length movable)
  in
  (* a merged cluster stays within 4x the level's mean movable-cell area *)
  let area_cap = 4.0 *. mean_area in
  let order = Array.copy free in
  Rng.shuffle rng order;
  let protected_src = Array.make nc false in
  (* candidate scores live in a flat array indexed by cell id, with a
     per-u stamp (the id of the seed that last touched the slot) instead
     of clearing between seeds — the Hashtbl this replaces dominated the
     matching pass on 100k+ cell designs.  The winner rule (max score,
     lower id on ties) has a unique answer, so scanning the touched list
     in insertion order picks the same mate the unordered fold did. *)
  let score = Array.make nc 0.0 in
  let stamp = Array.make nc (-1) in
  let touched = ref (Array.make 256 0) in
  let n_touched = ref 0 in
  let push v =
    if !n_touched = Array.length !touched then begin
      let bigger = Array.make (2 * !n_touched) 0 in
      Array.blit !touched 0 bigger 0 !n_touched;
      touched := bigger
    end;
    !touched.(!n_touched) <- v;
    incr n_touched
  in
  Array.iter
    (fun u ->
      if cluster_of.(u) < 0 then
        if protect u then begin
          (* clusters formed at an earlier level stay intact: singleton *)
          let cid = new_cluster () in
          cluster_of.(u) <- cid;
          protected_src.(u) <- true
        end
        else begin
          n_touched := 0;
          let a_u = cell_area fine u in
          Soa.iter_nets_of_cell soa u (fun n ->
              (* distinct cells, not pins: a net's two pins on one cell
                 are one neighbour *)
              let deg = Soa.net_cell_count soa n in
              if deg >= 2 && deg <= max_net_degree then begin
                let w = soa.Soa.net_weight.(n) /. float_of_int (deg - 1) in
                Soa.iter_cells_of_net soa n (fun v ->
                    if
                      v <> u
                      && cluster_of.(v) < 0
                      && (not (protect v))
                      && not (Soa.is_fixed soa v)
                      && a_u +. cell_area fine v <= area_cap
                    then begin
                      if stamp.(v) <> u then begin
                        stamp.(v) <- u;
                        score.(v) <- 0.0;
                        push v
                      end;
                      score.(v) <- w +. score.(v)
                    end)
              end);
          let best_v = ref (-1) in
          let best_s = ref 0.0 in
          for t = 0 to !n_touched - 1 do
            let v = (!touched).(t) in
            let s = score.(v) in
            if !best_v < 0 || not (!best_s > s || (Float.equal !best_s s && !best_v < v))
            then begin
              best_v := v;
              best_s := s
            end
          done;
          let cid = new_cluster () in
          cluster_of.(u) <- cid;
          if !best_v >= 0 then cluster_of.(!best_v) <- cid
        end)
    order;
  (* 3. fixed cells and pads are preserved one-to-one *)
  Array.iteri
    (fun i (c : Types.cell) ->
      if c.Types.c_kind <> Types.Movable then cluster_of.(i) <- new_cluster ())
    fine.Design.cells;
  let k = !next in
  let counts = Array.make k 0 in
  Array.iter (fun cid -> counts.(cid) <- counts.(cid) + 1) cluster_of;
  let members = Array.init k (fun cid -> Array.make counts.(cid) (-1)) in
  let fill = Array.make k 0 in
  for i = 0 to nc - 1 do
    let cid = cluster_of.(i) in
    members.(cid).(fill.(cid)) <- i;
    fill.(cid) <- fill.(cid) + 1
  done;
  (* 4. the coarse design: one cell per cluster, ids equal cluster ids *)
  let is_group = Array.make k false in
  List.iter (fun (cid, _) -> is_group.(cid) <- true) group_of;
  let group_dims = Array.make k (0.0, 0.0) in
  List.iter
    (fun (cid, (dg : Dgroup.t)) -> group_dims.(cid) <- (dg.Dgroup.width, dg.Dgroup.height))
    group_of;
  let die = fine.Design.die in
  let b =
    Builder.create ~name:(fine.Design.name ^ "#") ~die ~row_height:fine.Design.row_height
      ~site_width:fine.Design.site_width ()
  in
  let protected = Array.make k false in
  for cid = 0 to k - 1 do
    let ms = members.(cid) in
    let id =
      if Array.length ms = 1 then begin
        let i = ms.(0) in
        let c = Design.cell fine i in
        let id =
          Builder.add_cell b
            ~name:(Printf.sprintf "k%d" cid)
            ~master:c.Types.c_master ~w:c.Types.c_width ~h:c.Types.c_height
            ~kind:c.Types.c_kind
        in
        Builder.set_position b id ~x:fine.Design.x.(i) ~y:fine.Design.y.(i);
        Builder.set_orient b id fine.Design.orient.(i);
        protected.(cid) <- protected_src.(i);
        id
      end
      else begin
        let w, h =
          if is_group.(cid) then group_dims.(cid)
          else begin
            let area = Array.fold_left (fun acc i -> acc +. cell_area fine i) 0.0 ms in
            cluster_shape fine ~area
          end
        in
        let id =
          Builder.add_cell b
            ~name:(Printf.sprintf "k%d" cid)
            ~master:"cluster" ~w ~h ~kind:Types.Movable
        in
        Builder.set_position b id
          ~x:(((die.Rect.xl +. die.Rect.xh) /. 2.0) -. (w /. 2.0))
          ~y:(((die.Rect.yl +. die.Rect.yh) /. 2.0) -. (h /. 2.0));
        protected.(cid) <- is_group.(cid);
        id
      end
    in
    assert (id = cid)
  done;
  (* 5. coarse nets: one net per distinct incident-cluster set (weights
     merged), one center pin per (net, cluster); single-cluster nets are
     internal and vanish.  Keys are visited in first-seen order over the
     ascending fine nets, so net ids are deterministic too. *)
  let net_keys = Hashtbl.create (Soa.num_nets soa) in
  let key_order = ref [] in
  for n = 0 to Soa.num_nets soa - 1 do
    let weight = soa.Soa.net_weight.(n) in
    let cs = ref [] in
    Soa.iter_cells_of_net soa n (fun c -> cs := cluster_of.(c) :: !cs);
    match List.sort_uniq compare !cs with
    | [] | [ _ ] -> ()
    | cs -> (
      match Hashtbl.find_opt net_keys cs with
      | Some w -> Hashtbl.replace net_keys cs (w +. weight)
      | None ->
        Hashtbl.add net_keys cs weight;
        key_order := cs :: !key_order)
  done;
  List.iter
    (fun cs ->
      let weight = Hashtbl.find net_keys cs in
      let pins = List.map (fun cid -> Builder.add_pin b ~cell:cid ~dir:Types.Inout ()) cs in
      ignore (Builder.add_net b ~weight pins))
    (List.rev !key_order);
  let coarse = Builder.finish b in
  { fine; coarse; coarse_soa = Soa.of_design coarse; cluster_of; members; group_of; protected }

(* Size of the largest connected component of movable cells (connectivity
   through nets of any degree).  PEKO-style benches decompose into
   thousands of tiny islands; heavy-edge matching over such dust produces
   near-random clusters and the V-cycle then amplifies rather than
   reduces the wirelength gap (the 33.8x PEKO regression).  When even
   the largest island is at or below the flat-GP floor, coarsening has
   nothing to exploit and [build] falls back to flat GP. *)
let largest_movable_component (s : Soa.t) =
  let nc = Soa.num_cells s in
  if nc = 0 then 0
  else begin
    let uf = Dpp_util.Union_find.create nc in
    for n = 0 to Soa.num_nets s - 1 do
      let first = ref (-1) in
      Soa.iter_cells_of_net s n (fun c ->
          if !first < 0 then first := c else Dpp_util.Union_find.union uf !first c)
    done;
    let counts = Array.make nc 0 in
    let best = ref 0 in
    for i = 0 to nc - 1 do
      if not (Soa.is_fixed s i) then begin
        let r = Dpp_util.Union_find.find uf i in
        counts.(r) <- counts.(r) + 1;
        if counts.(r) > !best then best := counts.(r)
      end
    done;
    !best
  end

let build ?(groups = []) ?(min_cells = 500) ?(max_levels = 3) ~seed ~soa
    (root : Design.t) =
  let rng = Rng.create (seed lxor 0x436f6172) in
  (* the root's flat view is the caller's; each level derives its coarse
     design's once and the next depth coarsens over it *)
  let rec go acc depth fine soa groups protect =
    let n_mov = Array.length (Design.movable_ids fine) in
    if depth >= max_levels || n_mov <= min_cells then List.rev acc
    else begin
      let lvl = coarsen_once ~rng:(Rng.split rng) ~groups ~protect ~soa fine in
      let n_coarse = Array.length (Design.movable_ids lvl.coarse) in
      Log.info (fun m ->
          m "level %d: %d -> %d movables (%d group clusters)" (depth + 1) n_mov n_coarse
            (List.length lvl.group_of));
      if float_of_int n_coarse > 0.9 *. float_of_int n_mov then List.rev acc
      else go (lvl :: acc) (depth + 1) lvl.coarse lvl.coarse_soa [] (fun i -> lvl.protected.(i))
    end
  in
  let n_mov = Array.length (Design.movable_ids root) in
  if n_mov > min_cells then begin
    let lcc = largest_movable_component soa in
    if lcc <= min_cells then begin
      Log.info (fun m ->
          m "disconnected design: largest movable component %d <= %d; flat GP fallback" lcc
            min_cells);
      []
    end
    else go [] 0 root soa groups (fun _ -> false)
  end
  else go [] 0 root soa groups (fun _ -> false)

let cluster_centers (lvl : level) ~cx ~cy =
  let k = Design.num_cells lvl.coarse in
  let ccx = Array.make k 0.0 and ccy = Array.make k 0.0 in
  for cid = 0 to k - 1 do
    let ms = lvl.members.(cid) in
    if Array.length ms = 1 then begin
      ccx.(cid) <- cx.(ms.(0));
      ccy.(cid) <- cy.(ms.(0))
    end
    else begin
      let area = ref 0.0 and sx = ref 0.0 and sy = ref 0.0 in
      Array.iter
        (fun i ->
          let a = cell_area lvl.fine i in
          area := !area +. a;
          sx := !sx +. (a *. cx.(i));
          sy := !sy +. (a *. cy.(i)))
        ms;
      let a = if !area > 0.0 then !area else 1.0 in
      ccx.(cid) <- !sx /. a;
      ccy.(cid) <- !sy /. a
    end
  done;
  ccx, ccy

let interpolate (lvl : level) ~ccx ~ccy ~cx ~cy =
  let die = lvl.fine.Design.die in
  let is_group = Array.make (Design.num_cells lvl.coarse) false in
  List.iter (fun (cid, _) -> is_group.(cid) <- true) lvl.group_of;
  (* group clusters re-seed their members in bit order at the idealized
     array offsets from the solved cluster center *)
  List.iter
    (fun (cid, (dg : Dgroup.t)) ->
      let w = dg.Dgroup.width and h = dg.Dgroup.height in
      let ox = ccx.(cid) -. (w /. 2.0) and oy = ccy.(cid) -. (h /. 2.0) in
      let ox = min (max ox die.Rect.xl) (max die.Rect.xl (die.Rect.xh -. w)) in
      let oy = min (max oy die.Rect.yl) (max die.Rect.yl (die.Rect.yh -. h)) in
      Array.iteri
        (fun k i ->
          cx.(i) <- ox +. dg.Dgroup.off_x.(k);
          cy.(i) <- oy +. dg.Dgroup.off_y.(k))
        dg.Dgroup.cells)
    lvl.group_of;
  Array.iteri
    (fun cid ms ->
      if (not is_group.(cid)) && (Design.cell lvl.coarse cid).Types.c_kind = Types.Movable
      then
        Array.iter
          (fun i ->
            let c = Design.cell lvl.fine i in
            let hw = c.Types.c_width /. 2.0 and hh = c.Types.c_height /. 2.0 in
            cx.(i) <- min (max ccx.(cid) (die.Rect.xl +. hw)) (die.Rect.xh -. hw);
            cy.(i) <- min (max ccy.(cid) (die.Rect.yl +. hh)) (die.Rect.yh -. hh))
          ms)
    lvl.members
