(** Extraction quality against ground truth (Table 2).

    The paper could only spot-check its extractor by hand; the synthetic
    benchmarks carry exact labels, so we report proper cell-level
    precision/recall and group-level matching. *)

type t = {
  true_groups : int;
  found_groups : int;
  matched_groups : int;  (** found groups with cell-Jaccard >= 0.5 to some true group *)
  true_cells : int;
  found_cells : int;
  correct_cells : int;  (** found cells that are in some true group *)
  precision : float;  (** correct / found (1.0 when nothing found) *)
  recall : float;  (** correct / true (1.0 when nothing to find) *)
  f1 : float;
}

val compare_to_truth :
  truth:Dpp_netlist.Groups.t list -> found:Dpp_netlist.Groups.t list -> t
(** One pass over each side: linear in the cells (arrays indexed up to
    the largest cell id) plus the group sizes.  Holes and a cell repeated
    within a group count once; true groups may overlap. *)

val header : string list
val to_row : string -> t -> string list
(** First column is the design name. *)
