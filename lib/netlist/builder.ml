module Rect = Dpp_geom.Rect
module Orient = Dpp_geom.Orient
module Dyn = Dpp_util.Dyn
module Nametab = Dpp_util.Nametab

(* Staging is one flat array per field (floats unboxed), grown by
   doubling; the Types.cell/net/pin records exist only from [finish]. *)
type t = {
  b_name : string;
  mutable b_die : Rect.t;
  b_row_height : float;
  b_site_width : float;
  mutable b_num_rows : int;
  (* cells: one per name, numbered as [c_name] numbers the names *)
  c_name : Nametab.t;
  mutable c_master : string array;
  mutable c_w : float array;
  mutable c_h : float array;
  mutable c_kind : Types.cell_kind array;
  mutable c_x : float array;
  mutable c_y : float array;
  mutable c_orient : Orient.t array;
  (* pins *)
  mutable np : int;
  mutable p_cell : int array;
  mutable p_dir : Types.direction array;
  mutable p_dx : float array;
  mutable p_dy : float array;
  mutable p_net : int array;
  (* nets: net [n]'s pins are [n_pin.(n_off.(n) .. n_off.(n + 1) - 1)] *)
  mutable nn : int;
  mutable n_name : string array;
  mutable n_weight : float array;
  mutable n_off : int array;
  mutable n_pin : int array;
  b_groups : Groups.t Dyn.t;
  mutable b_finished : bool;
}

let rows_of_die ~die ~row_height =
  let h = Rect.height die in
  let rows = h /. row_height in
  let num_rows = int_of_float (Float.round rows) in
  if num_rows <= 0 || abs_float (rows -. float_of_int num_rows) > 1e-6 then
    invalid_arg "Builder: die height must be a positive multiple of row height";
  num_rows

let create ?(name = "design") ~die ~row_height ~site_width () =
  if row_height <= 0.0 || site_width <= 0.0 then
    invalid_arg "Builder.create: non-positive row height or site width";
  let num_rows = rows_of_die ~die ~row_height in
  {
    b_name = name;
    b_die = die;
    b_row_height = row_height;
    b_site_width = site_width;
    b_num_rows = num_rows;
    c_name = Nametab.create 1024;
    c_master = [||];
    c_w = [||];
    c_h = [||];
    c_kind = [||];
    c_x = [||];
    c_y = [||];
    c_orient = [||];
    np = 0;
    p_cell = [||];
    p_dir = [||];
    p_dx = [||];
    p_dy = [||];
    p_net = [||];
    nn = 0;
    n_name = [||];
    n_weight = [||];
    n_off = [| 0 |];
    n_pin = [||];
    b_groups = Dyn.create ();
    b_finished = false;
  }

let check_alive t = if t.b_finished then invalid_arg "Builder: already finished"

(* [a] with room for index [n]: doubled when full, filled with [fill] *)
let room a n fill =
  if n < Array.length a then a
  else begin
    let b = Array.make (max 16 (2 * n)) fill in
    Array.blit a 0 b 0 n;
    b
  end

let set_die t die =
  check_alive t;
  t.b_num_rows <- rows_of_die ~die ~row_height:t.b_row_height;
  t.b_die <- die

let add_cell t ~name ~master ~w ~h ~kind =
  check_alive t;
  (match kind with
  | Types.Movable when w <= 0.0 || h <= 0.0 ->
    invalid_arg "Builder.add_cell: movable cell must have positive dimensions"
  | Types.Movable | Types.Fixed | Types.Pad -> ());
  let id = Nametab.length t.c_name in
  if Nametab.add t.c_name name <> id then
    invalid_arg (Printf.sprintf "Builder.add_cell: duplicate cell name %S" name);
  if id = Array.length t.c_w then begin
    t.c_master <- room t.c_master id "";
    t.c_w <- room t.c_w id 0.0;
    t.c_h <- room t.c_h id 0.0;
    t.c_kind <- room t.c_kind id Types.Movable;
    t.c_x <- room t.c_x id 0.0;
    t.c_y <- room t.c_y id 0.0;
    t.c_orient <- room t.c_orient id Orient.N
  end;
  t.c_master.(id) <- master;
  t.c_w.(id) <- w;
  t.c_h.(id) <- h;
  t.c_kind.(id) <- kind;
  t.c_x.(id) <- 0.0;
  t.c_y.(id) <- 0.0;
  t.c_orient.(id) <- Orient.N;
  id

let num_cells t = Nametab.length t.c_name

let check_cell t fn i =
  if i < 0 || i >= num_cells t then invalid_arg ("Builder." ^ fn ^ ": bad cell id")

let add_pin t ~cell ~dir ?dx ?dy () =
  check_alive t;
  check_cell t "add_pin" cell;
  let dx = match dx with Some dx -> dx | None -> t.c_w.(cell) /. 2.0 in
  let dy = match dy with Some dy -> dy | None -> t.c_h.(cell) /. 2.0 in
  let id = t.np in
  if id = Array.length t.p_dx then begin
    t.p_cell <- room t.p_cell id 0;
    t.p_dir <- room t.p_dir id Types.Input;
    t.p_dx <- room t.p_dx id 0.0;
    t.p_dy <- room t.p_dy id 0.0;
    t.p_net <- room t.p_net id (-1)
  end;
  t.p_cell.(id) <- cell;
  t.p_dir.(id) <- dir;
  t.p_dx.(id) <- dx;
  t.p_dy.(id) <- dy;
  t.p_net.(id) <- -1;
  t.np <- id + 1;
  id

let add_net t ?name ?(weight = 1.0) pins =
  check_alive t;
  if pins = [] then invalid_arg "Builder.add_net: empty pin list";
  let id = t.nn in
  let name = match name with Some n -> n | None -> Printf.sprintf "net_%d" id in
  (* the pins land past the last net's and count only once the net does *)
  let k = ref t.n_off.(id) in
  List.iter
    (fun p ->
      if p < 0 || p >= t.np then invalid_arg "Builder.add_net: bad pin id";
      if t.p_net.(p) >= 0 then
        invalid_arg (Printf.sprintf "Builder.add_net: pin %d already connected" p);
      t.p_net.(p) <- id;
      t.n_pin <- room t.n_pin !k 0;
      t.n_pin.(!k) <- p;
      incr k)
    pins;
  if id = Array.length t.n_weight then begin
    t.n_name <- room t.n_name id "";
    t.n_weight <- room t.n_weight id 0.0
  end;
  t.n_off <- room t.n_off (id + 1) 0;
  t.n_name.(id) <- name;
  t.n_weight.(id) <- weight;
  t.n_off.(id + 1) <- !k;
  t.nn <- id + 1;
  id

let set_position t i ~x ~y =
  check_alive t;
  check_cell t "set_position" i;
  t.c_x.(i) <- x;
  t.c_y.(i) <- y

let set_orient t i o =
  check_alive t;
  check_cell t "set_orient" i;
  t.c_orient.(i) <- o

let add_group t g =
  check_alive t;
  Dyn.push t.b_groups g

let cell_id t name =
  let id = Nametab.find t.c_name name in
  if id < 0 then None else Some id

let find_cell t b ~pos ~len = Nametab.find_sub t.c_name b ~pos ~len

let cell_dims t i =
  check_cell t "cell_dims" i;
  t.c_w.(i), t.c_h.(i)

let movable_area t =
  let acc = ref 0.0 in
  for i = 0 to num_cells t - 1 do
    match t.c_kind.(i) with
    | Types.Movable -> acc := !acc +. (t.c_w.(i) *. t.c_h.(i))
    | Types.Fixed | Types.Pad -> ()
  done;
  !acc

let num_nets t = t.nn

(* Each cell's pin ids in ascending order — the order [add_pin] handed
   them out — by one counting sort over the pins' owners. *)
let cell_pins t =
  let fill = Array.make (num_cells t) 0 in
  for p = 0 to t.np - 1 do
    let c = t.p_cell.(p) in
    fill.(c) <- fill.(c) + 1
  done;
  let pins = Array.map (fun k -> Array.make k 0) fill in
  Array.fill fill 0 (num_cells t) 0;
  for p = 0 to t.np - 1 do
    let c = t.p_cell.(p) in
    pins.(c).(fill.(c)) <- p;
    fill.(c) <- fill.(c) + 1
  done;
  pins

let finish t =
  check_alive t;
  t.b_finished <- true;
  let nc = num_cells t in
  let c_pins = cell_pins t in
  let cells =
    Array.init nc (fun i ->
        {
          Types.c_id = i;
          c_name = Nametab.name t.c_name i;
          c_master = t.c_master.(i);
          c_width = t.c_w.(i);
          c_height = t.c_h.(i);
          c_kind = t.c_kind.(i);
          c_pins = c_pins.(i);
        })
  in
  let pins =
    Array.init t.np (fun i ->
        {
          Types.p_id = i;
          p_cell = t.p_cell.(i);
          p_net = t.p_net.(i);
          p_dir = t.p_dir.(i);
          p_dx = t.p_dx.(i);
          p_dy = t.p_dy.(i);
        })
  in
  let nets =
    Array.init t.nn (fun i ->
        let lo = t.n_off.(i) in
        {
          Types.n_id = i;
          n_name = t.n_name.(i);
          n_weight = t.n_weight.(i);
          n_pins = Array.sub t.n_pin lo (t.n_off.(i + 1) - lo);
        })
  in
  let groups = Array.to_list (Dyn.to_array t.b_groups) in
  List.iter
    (fun g ->
      Array.iter
        (fun row ->
          Array.iter
            (fun c ->
              if c >= nc then
                invalid_arg
                  (Printf.sprintf "Builder.finish: group %s references unknown cell %d"
                     g.Groups.g_name c))
            row)
        g.Groups.g_rows)
    groups;
  {
    Design.name = t.b_name;
    die = t.b_die;
    row_height = t.b_row_height;
    site_width = t.b_site_width;
    num_rows = t.b_num_rows;
    cells;
    nets;
    pins;
    x = Array.sub t.c_x 0 nc;
    y = Array.sub t.c_y 0 nc;
    orient = Array.sub t.c_orient 0 nc;
    groups;
  }
