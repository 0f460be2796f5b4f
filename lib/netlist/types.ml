type direction = Input | Output | Inout

type cell_kind = Movable | Fixed | Pad

type cell = {
  c_id : int;
  c_name : string;
  c_master : string;
  c_width : float;
  c_height : float;
  c_kind : cell_kind;
  c_pins : int array;
}

type net = { n_id : int; n_name : string; n_weight : float; n_pins : int array }

type pin = {
  p_id : int;
  p_cell : int;
  p_net : int;
  p_dir : direction;
  p_dx : float;
  p_dy : float;
}

let direction_to_string = function Input -> "I" | Output -> "O" | Inout -> "B"

let is_fixed_kind = function Fixed | Pad -> true | Movable -> false
