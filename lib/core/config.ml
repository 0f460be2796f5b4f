type mode = Baseline | Structure_aware

type structure_style = Rigid_macros | Soft_alignment

type ml_mode = Ml_auto | Ml_on | Ml_off

type t = {
  mode : mode;
  structure : structure_style;
  target_density : float;
  beta : float;
  min_coupling : float;
  max_slice_span : float;
  gp_rounds : int;
  gp_inner_iters : int;
  detail_passes : int;
  seed : int;
  jobs : int;
  multilevel : ml_mode;
  ml_min_cells : int;
  ml_max_levels : int;
  routability : bool;
  rt_interval : int;
}

let baseline =
  {
    mode = Baseline;
    structure = Rigid_macros;
    target_density = 0.9;
    beta = 1.0;
    min_coupling = 0.7;
    max_slice_span = 1.5;
    gp_rounds = 30;
    gp_inner_iters = 60;
    detail_passes = 3;
    seed = 1;
    jobs = 1;
    multilevel = Ml_auto;
    ml_min_cells = 500;
    ml_max_levels = 3;
    routability = false;
    rt_interval = 3;
  }

let structure_aware = { baseline with mode = Structure_aware }

(* [Ml_auto] cut-over, in movable cells *)
let ml_threshold = 1500

let multilevel_enabled t ~movables =
  match t.multilevel with
  | Ml_on -> true
  | Ml_off -> false
  | Ml_auto -> movables > ml_threshold

let with_structure structure t = { t with structure }
let with_beta beta t = { t with beta }

let mode_to_string = function Baseline -> "baseline" | Structure_aware -> "structure-aware"
