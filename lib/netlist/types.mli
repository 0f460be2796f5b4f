(** Core netlist entity types, shared by every stage of the flow.

    Entities are records held in dense arrays indexed by their integer ids;
    ids are assigned contiguously by {!Builder} and never change.  Cell
    positions live in the {!Design.t} coordinate arrays (not in the cell
    records) so placement iterations touch flat float arrays only. *)

type direction = Input | Output | Inout

type cell_kind =
  | Movable  (** a standard cell the placer may move *)
  | Fixed    (** pre-placed blockage or macro; position is law *)
  | Pad      (** I/O terminal on the die boundary; fixed, zero area for density *)

type cell = {
  c_id : int;
  c_name : string;
  c_master : string;  (** library master name, e.g. "NAND2_X1" *)
  c_width : float;
  c_height : float;
  c_kind : cell_kind;
  c_pins : int array;  (** pin ids on this cell *)
}

type net = {
  n_id : int;
  n_name : string;
  n_weight : float;  (** criticality weight; 1.0 by default *)
  n_pins : int array;  (** pin ids on this net *)
}

type pin = {
  p_id : int;
  p_cell : int;  (** owning cell id *)
  p_net : int;  (** net id; [-1] while unconnected during building *)
  p_dir : direction;
  p_dx : float;  (** offset from the cell's lower-left corner, N orientation *)
  p_dy : float;
}

val direction_to_string : direction -> string
val is_fixed_kind : cell_kind -> bool
(** [Fixed] and [Pad] cells are immovable. *)
