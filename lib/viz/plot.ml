module Rect = Dpp_geom.Rect
module Design = Dpp_netlist.Design
module Types = Dpp_netlist.Types
module Groups = Dpp_netlist.Groups

(* SVG units per database unit *)
let scale = 2.0

(* draw one design into [svg] translated by (ox, oy) in user units *)
let draw_design svg ~ox ~oy ?congestion ~groups ?title (d : Design.t) =
  let die = d.Design.die in
  let sx x = ox +. (scale *. (x -. die.Rect.xl)) in
  let sy y = oy +. (scale *. (y -. die.Rect.yl)) in
  let w = scale *. Rect.width die and h = scale *. Rect.height die in
  (* congestion underlay *)
  (match congestion with
  | Some (r : Dpp_congest.Rudy.t) ->
    for iy = 0 to r.Dpp_congest.Rudy.ny - 1 do
      for ix = 0 to r.Dpp_congest.Rudy.nx - 1 do
        let ratio = Dpp_congest.Rudy.ratio_at r ~ix ~iy in
        if ratio > 0.5 then
          Svg.rect svg
            ~x:(sx (die.Rect.xl +. (float_of_int ix *. r.Dpp_congest.Rudy.bin_w)))
            ~y:(sy (die.Rect.yl +. (float_of_int iy *. r.Dpp_congest.Rudy.bin_h)))
            ~w:(scale *. r.Dpp_congest.Rudy.bin_w)
            ~h:(scale *. r.Dpp_congest.Rudy.bin_h)
            ~fill:(Svg.heat_color (ratio /. 2.0))
            ~opacity:0.35 ()
      done
    done
  | None -> ());
  (* die + rows *)
  Svg.rect svg ~x:(sx die.Rect.xl) ~y:(sy die.Rect.yl) ~w ~h ~stroke:"black" ~stroke_width:1.0 ();
  for r = 1 to d.Design.num_rows - 1 do
    let y = sy (Design.row_y d r) in
    Svg.line svg ~x1:(sx die.Rect.xl) ~y1:y ~x2:(sx die.Rect.xh) ~y2:y ~stroke:"#eeeeee"
      ~stroke_width:0.3 ()
  done;
  (* group membership colors *)
  let owner = Hashtbl.create 256 in
  List.iteri
    (fun gi g -> Array.iter (fun c -> Hashtbl.replace owner c gi) (Groups.cell_ids g))
    groups;
  Array.iter
    (fun (c : Types.cell) ->
      let i = c.Types.c_id in
      let r = Design.cell_rect d i in
      let fill, opacity =
        match c.Types.c_kind with
        | Types.Fixed -> "#333333", 0.9
        | Types.Pad -> "#000000", 0.9
        | Types.Movable -> (
          match Hashtbl.find_opt owner i with
          | Some gi -> Svg.color_of_index gi, 0.9
          | None -> "#bbbbbb", 0.7)
      in
      Svg.rect svg ~x:(sx r.Rect.xl) ~y:(sy r.Rect.yl) ~w:(scale *. Rect.width r)
        ~h:(scale *. Rect.height r) ~fill ~stroke:"white"
        ~stroke_width:(0.1 *. scale) ~opacity ())
    d.Design.cells;
  match title with
  | Some title -> Svg.text svg ~x:ox ~y:(oy +. h +. (4.0 *. scale)) ~size:(5.0 *. scale) title
  | None -> ()

let placement ?groups ?congestion ?title (d : Design.t) ~path =
  let groups = Option.value groups ~default:d.Design.groups in
  let die = d.Design.die in
  let w = scale *. Rect.width die and h = scale *. Rect.height die in
  let svg = Svg.create ~width:w ~height:(h +. (12.0 *. scale)) () in
  draw_design svg ~ox:0.0 ~oy:0.0 ?congestion ~groups ?title d;
  Svg.write svg ~path

let compare_placements ~left ~right ?(left_title = "left")
    ?(right_title = "right") ~path () =
  let wl = scale *. Rect.width left.Design.die in
  let wr = scale *. Rect.width right.Design.die in
  let h =
    max (scale *. Rect.height left.Design.die) (scale *. Rect.height right.Design.die)
  in
  let gap = 20.0 *. scale in
  let svg = Svg.create ~width:(wl +. gap +. wr) ~height:(h +. (12.0 *. scale)) () in
  draw_design svg ~ox:0.0 ~oy:0.0 ~groups:left.Design.groups ~title:left_title left;
  draw_design svg ~ox:(wl +. gap) ~oy:0.0 ~groups:right.Design.groups
    ~title:right_title right;
  Svg.write svg ~path
