module Design = Dpp_netlist.Design
module Soa = Dpp_netlist.Soa
module Groups = Dpp_netlist.Groups
module Pins = Dpp_wirelen.Pins
module Netbox = Dpp_wirelen.Netbox
module Hpwl = Dpp_wirelen.Hpwl

type t = {
  design : Design.t;
  config : Config.t;
  pool : Dpp_par.Pool.t;
  soa : Soa.t;
  pins : Pins.t;
  mutable cx : float array;
  mutable cy : float array;
  mutable netbox : Netbox.t option;
  mutable skip : int -> bool;
  mutable skip_ids : int array;
  mutable flip_skip : int -> bool;
  mutable flip_skip_ids : int array;
  mutable bound : Dpp_geom.Rect.t option;
  mutable obstacles : Dpp_geom.Rect.t list;
  mutable legal : Dpp_place.Legal.t option;
  mutable groups_used : Groups.t list;
  mutable extraction : (Dpp_extract.Slicer.result * Dpp_extract.Exmetrics.t) option;
  mutable dgroups : Dpp_structure.Dgroup.t list;
  mutable macro_dgs : Dpp_structure.Dgroup.t list;
  mutable rigid_dgs : Dpp_structure.Dgroup.t list;
  mutable soft_dgs : Dpp_structure.Dgroup.t list;
  mutable gp : Dpp_place.Gp.result option;
  mutable ml_levels : Dpp_coarsen.level list;
  mutable gp_levels : Dpp_place.Gp.level_info list;
  mutable detail_stats : Dpp_place.Detail.stats option;
  mutable flip_stats : Dpp_place.Flip.stats option;
  mutable steiner_final : float;
  mutable steiner : Dpp_steiner.Rsmt.nets;
  mutable congestion : Dpp_congest.Rudy.stats option;
  mutable critical_delay : float;
}

let create design config =
  let cx, cy = Pins.centers_of_design design in
  let soa = Soa.of_design design in
  {
    design;
    config;
    pool = Dpp_par.Pool.create ~nworkers:config.Config.jobs;
    soa;
    pins = Pins.of_soa soa;
    cx;
    cy;
    netbox = None;
    skip = (fun _ -> false);
    skip_ids = [||];
    flip_skip = (fun _ -> false);
    flip_skip_ids = [||];
    bound = None;
    obstacles = [];
    legal = None;
    groups_used = [];
    extraction = None;
    dgroups = [];
    macro_dgs = [];
    rigid_dgs = [];
    soft_dgs = [];
    gp = None;
    ml_levels = [];
    gp_levels = [];
    detail_stats = None;
    flip_stats = None;
    steiner_final = 0.0;
    steiner = Dpp_steiner.Rsmt.empty;
    congestion = None;
    critical_delay = 0.0;
  }

(* install a skip predicate together with the id set behind it, so
   checkpoint snapshots can serialize it (a bare closure cannot be) *)
let set_skip t ids =
  let h = Hashtbl.create (max 16 (Array.length ids)) in
  Array.iter (fun i -> Hashtbl.replace h i ()) ids;
  t.skip_ids <- ids;
  t.skip <- (fun i -> Hashtbl.mem h i)

let set_flip_skip t ids =
  let h = Hashtbl.create (max 16 (Array.length ids)) in
  Array.iter (fun i -> Hashtbl.replace h i ()) ids;
  t.flip_skip_ids <- ids;
  t.flip_skip <- (fun i -> Hashtbl.mem h i)

let set_coords t cx cy =
  t.cx <- cx;
  t.cy <- cy;
  t.netbox <- None

let netbox t =
  match t.netbox with
  | Some nb -> nb
  | None ->
    let nb = Netbox.build ~pool:t.pool t.pins ~cx:t.cx ~cy:t.cy in
    t.netbox <- Some nb;
    nb

let hpwl t =
  match t.netbox with
  | Some nb -> Netbox.total nb
  | None -> Hpwl.total t.pins ~cx:t.cx ~cy:t.cy
