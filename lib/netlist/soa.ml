module Rect = Dpp_geom.Rect
module Orient = Dpp_geom.Orient
module I32 = Dpp_util.Compact.I32
module I8 = Dpp_util.Compact.I8
module F64 = Dpp_util.Compact.F64

type t = {
  name : string;
  die : Rect.t;
  row_height : float;
  site_width : float;
  num_rows : int;
  num_cells : int;
  num_nets : int;
  num_pins : int;
  (* cell fields, indexed by cell id *)
  cell_name : string array;
  cell_master : string array;  (* interned: one block per distinct master *)
  width : float array;
  height : float array;
  kind : I8.t;
  x : float array;
  y : float array;
  orient : Orient.t array;
  (* cell -> pins CSR, preserving each cell's pin-list order *)
  cell_pin_off : I32.t;
  cell_pin : I32.t;
  (* net fields, indexed by net id *)
  net_name : string array;
  net_weight : float array;
  (* net -> pins CSR, preserving each net's pin-array order *)
  net_pin_off : I32.t;
  net_pin : I32.t;
  (* pin fields, indexed by pin id *)
  pin_cell : I32.t;
  pin_net : I32.t;
  pin_dir : I8.t;
  pin_dx : F64.t;
  pin_dy : F64.t;
  (* deduplicated cell<->net incidence: each net's distinct cells
     ascending, each cell's nets ascending *)
  net_cell_off : I32.t;
  net_cell : I32.t;
  cell_net_off : I32.t;
  cell_net : I32.t;
  groups : Groups.t list;
}

let kind_movable = 0
let kind_fixed = 1
let kind_pad = 2

let code_of_kind = function
  | Types.Movable -> kind_movable
  | Types.Fixed -> kind_fixed
  | Types.Pad -> kind_pad

let kind_of_code = function
  | 0 -> Types.Movable
  | 1 -> Types.Fixed
  | _ -> Types.Pad

let code_of_dir = function Types.Input -> 0 | Types.Output -> 1 | Types.Inout -> 2
let dir_of_code = function 0 -> Types.Input | 1 -> Types.Output | _ -> Types.Inout

let is_fixed t i = I8.uget t.kind i <> kind_movable

(* The int32 CSR overflow gate: entity counts and pin offsets must fit an
   int32 slot.  A design past 2^31 pins fails fast at derivation time
   with the counted total, never by silent wraparound inside a kernel. *)
let guard_pin_count ~name counted =
  if counted > I32.max_value then
    failwith
      (Printf.sprintf
         "Soa.of_design(%s): counted %d pins, which exceeds the int32 CSR offset range \
          (max %d)"
         name counted I32.max_value)

(* The deduplicated cell<->net CSR, derived from the net->pin and
   pin->cell arrays by two counting sorts and no comparison sort.
   Visiting nets in ascending order appends each net to its cells'
   lists in ascending order, and a cell's last-appended net is the
   only possible duplicate; transposing that visits cells in ascending
   order, so each net's cell list comes out ascending and distinct. *)
let cell_net_csr ~nc ~nn ~net_pin_off ~net_pin ~pin_cell =
  let iter_pin_cells n f =
    for k = I32.get net_pin_off n to I32.get net_pin_off (n + 1) - 1 do
      f (Int32.to_int (I32.uget pin_cell (Int32.to_int (I32.uget net_pin k))))
    done
  in
  let last = Array.make nc (-1) in
  let cell_net_off = I32.make (nc + 1) 0 in
  for n = 0 to nn - 1 do
    iter_pin_cells n (fun c ->
        if last.(c) <> n then begin
          last.(c) <- n;
          I32.set cell_net_off (c + 1) (I32.get cell_net_off (c + 1) + 1)
        end)
  done;
  for c = 0 to nc - 1 do
    I32.set cell_net_off (c + 1) (I32.get cell_net_off c + I32.get cell_net_off (c + 1))
  done;
  let total = I32.get cell_net_off nc in
  let cell_net = I32.make (max 1 total) 0 in
  let fill = Array.init nc (fun c -> I32.get cell_net_off c) in
  Array.fill last 0 nc (-1);
  let net_cell_off = I32.make (nn + 1) 0 in
  for n = 0 to nn - 1 do
    iter_pin_cells n (fun c ->
        if last.(c) <> n then begin
          last.(c) <- n;
          I32.set cell_net fill.(c) n;
          fill.(c) <- fill.(c) + 1;
          I32.set net_cell_off (n + 1) (I32.get net_cell_off (n + 1) + 1)
        end)
  done;
  for n = 0 to nn - 1 do
    I32.set net_cell_off (n + 1) (I32.get net_cell_off n + I32.get net_cell_off (n + 1))
  done;
  let net_cell = I32.make (max 1 total) 0 in
  let fill = Array.init nn (fun n -> I32.get net_cell_off n) in
  for c = 0 to nc - 1 do
    for k = I32.get cell_net_off c to I32.get cell_net_off (c + 1) - 1 do
      let n = Int32.to_int (I32.uget cell_net k) in
      I32.set net_cell fill.(n) c;
      fill.(n) <- fill.(n) + 1
    done
  done;
  net_cell_off, net_cell, cell_net_off, cell_net

let of_design (d : Design.t) =
  let nc = Design.num_cells d in
  let nn = Design.num_nets d in
  let np = Design.num_pins d in
  guard_pin_count ~name:d.Design.name np;
  let masters = Dpp_util.Nametab.create 64 in
  let cell_name = Array.make nc "" in
  let cell_master = Array.make nc "" in
  let width = Array.make nc 0.0 in
  let height = Array.make nc 0.0 in
  let kind = I8.make nc kind_movable in
  let cell_pin_off = I32.make (nc + 1) 0 in
  for i = 0 to nc - 1 do
    let c = d.Design.cells.(i) in
    cell_name.(i) <- c.Types.c_name;
    cell_master.(i) <- Dpp_util.Nametab.(name masters (add masters c.Types.c_master));
    width.(i) <- c.Types.c_width;
    height.(i) <- c.Types.c_height;
    I8.set kind i (code_of_kind c.Types.c_kind);
    I32.set cell_pin_off (i + 1) (I32.get cell_pin_off i + Array.length c.Types.c_pins)
  done;
  let cell_pin = I32.make (max 1 (I32.get cell_pin_off nc)) 0 in
  for i = 0 to nc - 1 do
    let pins = d.Design.cells.(i).Types.c_pins in
    I32.blit_array pins ~src_off:0 cell_pin ~dst_off:(I32.get cell_pin_off i)
      ~len:(Array.length pins)
  done;
  let net_name = Array.make nn "" in
  let net_weight = Array.make nn 0.0 in
  let net_pin_off = I32.make (nn + 1) 0 in
  for n = 0 to nn - 1 do
    let nt = d.Design.nets.(n) in
    net_name.(n) <- nt.Types.n_name;
    net_weight.(n) <- nt.Types.n_weight;
    I32.set net_pin_off (n + 1) (I32.get net_pin_off n + Array.length nt.Types.n_pins)
  done;
  let net_pin = I32.make (max 1 (I32.get net_pin_off nn)) 0 in
  for n = 0 to nn - 1 do
    let pins = d.Design.nets.(n).Types.n_pins in
    I32.blit_array pins ~src_off:0 net_pin ~dst_off:(I32.get net_pin_off n)
      ~len:(Array.length pins)
  done;
  let pin_cell = I32.make (max 1 np) 0 in
  let pin_net = I32.make (max 1 np) (-1) in
  let pin_dir = I8.make (max 1 np) (code_of_dir Types.Inout) in
  let pin_dx = F64.make (max 1 np) 0.0 in
  let pin_dy = F64.make (max 1 np) 0.0 in
  for p = 0 to np - 1 do
    let pin = d.Design.pins.(p) in
    I32.set pin_cell p pin.Types.p_cell;
    I32.set pin_net p pin.Types.p_net;
    I8.set pin_dir p (code_of_dir pin.Types.p_dir);
    F64.set pin_dx p pin.Types.p_dx;
    F64.set pin_dy p pin.Types.p_dy
  done;
  let net_cell_off, net_cell, cell_net_off, cell_net =
    cell_net_csr ~nc ~nn ~net_pin_off ~net_pin ~pin_cell
  in
  {
    name = d.Design.name;
    die = d.Design.die;
    row_height = d.Design.row_height;
    site_width = d.Design.site_width;
    num_rows = d.Design.num_rows;
    num_cells = nc;
    num_nets = nn;
    num_pins = np;
    cell_name;
    cell_master;
    width;
    height;
    kind;
    (* the coordinate and orientation arrays are ALIASED, not copied: the
       flat view and the record view always agree on live placement state,
       so in-place moves (flip, apply_centers) need no synchronization *)
    x = d.Design.x;
    y = d.Design.y;
    orient = d.Design.orient;
    cell_pin_off;
    cell_pin;
    net_name;
    net_weight;
    net_pin_off;
    net_pin;
    pin_cell;
    pin_net;
    pin_dir;
    pin_dx;
    pin_dy;
    net_cell_off;
    net_cell;
    cell_net_off;
    cell_net;
    groups = d.Design.groups;
  }

let to_design t =
  let cells =
    Array.init t.num_cells (fun i ->
        let lo = I32.get t.cell_pin_off i in
        {
          Types.c_id = i;
          c_name = t.cell_name.(i);
          c_master = t.cell_master.(i);
          c_width = t.width.(i);
          c_height = t.height.(i);
          c_kind = kind_of_code (I8.get t.kind i);
          c_pins = I32.sub_array t.cell_pin ~off:lo ~len:(I32.get t.cell_pin_off (i + 1) - lo);
        })
  in
  let nets =
    Array.init t.num_nets (fun n ->
        let lo = I32.get t.net_pin_off n in
        {
          Types.n_id = n;
          n_name = t.net_name.(n);
          n_weight = t.net_weight.(n);
          n_pins = I32.sub_array t.net_pin ~off:lo ~len:(I32.get t.net_pin_off (n + 1) - lo);
        })
  in
  let pins =
    Array.init t.num_pins (fun p ->
        {
          Types.p_id = p;
          p_cell = I32.get t.pin_cell p;
          p_net = I32.get t.pin_net p;
          p_dir = dir_of_code (I8.get t.pin_dir p);
          p_dx = F64.get t.pin_dx p;
          p_dy = F64.get t.pin_dy p;
        })
  in
  {
    Design.name = t.name;
    die = t.die;
    row_height = t.row_height;
    site_width = t.site_width;
    num_rows = t.num_rows;
    cells;
    nets;
    pins;
    x = Array.copy t.x;
    y = Array.copy t.y;
    orient = Array.copy t.orient;
    groups = t.groups;
  }

let num_cells t = t.num_cells
let num_nets t = t.num_nets
let num_pins t = t.num_pins
let net_degree t n =
  Int32.to_int (I32.uget t.net_pin_off (n + 1)) - Int32.to_int (I32.uget t.net_pin_off n)

let net_cell_count t n =
  Int32.to_int (I32.uget t.net_cell_off (n + 1)) - Int32.to_int (I32.uget t.net_cell_off n)

let iter_cells_of_net t n f =
  for
    k = Int32.to_int (I32.uget t.net_cell_off n)
    to Int32.to_int (I32.uget t.net_cell_off (n + 1)) - 1
  do
    f (Int32.to_int (I32.uget t.net_cell k))
  done

let iter_nets_of_cell t i f =
  for
    k = Int32.to_int (I32.uget t.cell_net_off i)
    to Int32.to_int (I32.uget t.cell_net_off (i + 1)) - 1
  do
    f (Int32.to_int (I32.uget t.cell_net k))
  done

let max_net_degree t =
  let m = ref 1 in
  for n = 0 to t.num_nets - 1 do
    let d = net_degree t n in
    if d > !m then m := d
  done;
  !m

let oriented_dims t i = Orient.apply t.orient.(i) ~w:t.width.(i) ~h:t.height.(i)

let cell_rect t i =
  let w, h = oriented_dims t i in
  Rect.make ~xl:t.x.(i) ~yl:t.y.(i) ~xh:(t.x.(i) +. w) ~yh:(t.y.(i) +. h)
