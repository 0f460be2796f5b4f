module Design = Dpp_netlist.Design
module Types = Dpp_netlist.Types
module Groups = Dpp_netlist.Groups
module Rect = Dpp_geom.Rect

type t = {
  group : Groups.t;
  cells : int array;
  off_x : float array;
  off_y : float array;
  width : float;
  height : float;
}

let build ?stage_order ?slice_order ?fold (d : Design.t) g =
  let slices = Groups.num_slices g and stages = Groups.num_stages g in
  let stage_order = Option.value stage_order ~default:(Array.init stages Fun.id) in
  let slice_order = Option.value slice_order ~default:(Array.init slices Fun.id) in
  (* column widths, indexed by array column (i.e. after reordering) *)
  let col_w = Array.make stages 0.0 in
  for s = 0 to slices - 1 do
    for k = 0 to stages - 1 do
      let c = g.Groups.g_rows.(s).(k) in
      if c >= 0 then begin
        let col = stage_order.(k) in
        col_w.(col) <- max col_w.(col) (Design.cell d c).Types.c_width
      end
    done
  done;
  let spacing = d.Design.site_width in
  (* stages pack tight: an airy array wastes row capacity and starves the
     legalizer around it *)
  let col_x = Array.make stages 0.0 in
  let cursor = ref 0.0 in
  for col = 0 to stages - 1 do
    col_x.(col) <- !cursor;
    cursor := !cursor +. col_w.(col)
  done;
  let block_w = max spacing !cursor in
  (* Folding: tall thin arrays (many slices, few stages) become walls that
     wreck the surrounding placement, so wide datapaths are folded into
     [fold] column blocks of ceil(slices/fold) rows each, serpentine so a
     carry chain crossing the fold stays on adjacent rows.  The default
     fold balances the footprint's aspect ratio. *)
  let fold =
    match fold with
    | Some f -> max 1 f
    | None ->
      let h1 = float_of_int slices *. d.Design.row_height in
      let f = int_of_float (Float.round (sqrt (h1 /. max 1.0 block_w))) in
      (* cap the folded height at ~a third of the die so one array cannot
         wall off the floorplan, and cap the width at ~90% of the die so
         wide merged groups still fit *)
      let rows_cap =
        max 2 (int_of_float (0.35 *. Rect.height d.Design.die /. d.Design.row_height))
      in
      let f_min = (slices + rows_cap - 1) / rows_cap in
      let f_max_width =
        let pitch = block_w +. (2.0 *. spacing) in
        max 1 (int_of_float (floor ((0.9 *. Rect.width d.Design.die) /. pitch)))
      in
      max 1 (min (min (max f f_min) f_max_width) (max 1 (slices / 2)))
  in
  let rows = (slices + fold - 1) / fold in
  let block_pitch = block_w +. (2.0 *. spacing) in
  let width = (float_of_int fold *. block_pitch) -. (2.0 *. spacing) in
  let height = float_of_int rows *. d.Design.row_height in
  let row_of_slot slot =
    let b = slot / rows in
    let r = slot mod rows in
    if b mod 2 = 0 then r else rows - 1 - r
  in
  let cells = ref [] and offs = ref [] in
  for s = 0 to slices - 1 do
    for k = 0 to stages - 1 do
      let c = g.Groups.g_rows.(s).(k) in
      if c >= 0 then begin
        let cell = Design.cell d c in
        let slot = slice_order.(s) in
        let b = slot / rows in
        let row = row_of_slot slot in
        let ox =
          (float_of_int b *. block_pitch)
          +. col_x.(stage_order.(k))
          +. (cell.Types.c_width /. 2.0)
        in
        let oy = (float_of_int row *. d.Design.row_height) +. (cell.Types.c_height /. 2.0) in
        cells := c :: !cells;
        offs := (ox, oy) :: !offs
      end
    done
  done;
  let cells = Array.of_list (List.rev !cells) in
  if Array.length cells = 0 then invalid_arg "Dgroup.build: empty group";
  let offs = Array.of_list (List.rev !offs) in
  {
    group = g;
    cells;
    off_x = Array.map fst offs;
    off_y = Array.map snd offs;
    width;
    height;
  }

let internal_coupling (d : Design.t) g =
  let member = Array.make (Design.num_cells d) false in
  Array.iter (Array.iter (fun c -> if c >= 0 then member.(c) <- true)) g.Groups.g_rows;
  let intra = ref 0 and boundary = ref 0 in
  Array.iter
    (fun (net : Types.net) ->
      let inside = ref 0 and outside = ref 0 in
      Array.iter
        (fun p -> if member.((Design.pin d p).Types.p_cell) then incr inside else incr outside)
        net.Types.n_pins;
      if !inside > 0 then
        if !outside = 0 then intra := !intra + !inside else boundary := !boundary + !inside)
    d.Design.nets;
  float_of_int !intra /. float_of_int (max 1 (!intra + !boundary))

let slice_span (d : Design.t) g =
  let slice_of = Array.make (Design.num_cells d) (-1) in
  Array.iteri
    (fun s row -> Array.iter (fun c -> if c >= 0 then slice_of.(c) <- s) row)
    g.Groups.g_rows;
  let total = ref 0.0 and count = ref 0 in
  Array.iter
    (fun (net : Types.net) ->
      let smin = ref max_int and smax = ref min_int and outside = ref false in
      Array.iter
        (fun p ->
          match slice_of.((Design.pin d p).Types.p_cell) with
          | -1 -> outside := true
          | s ->
            if s < !smin then smin := s;
            if s > !smax then smax := s)
        net.Types.n_pins;
      if (not !outside) && !smax > min_int && !smin < max_int then begin
        total := !total +. float_of_int (!smax - !smin);
        incr count
      end)
    d.Design.nets;
  if !count = 0 then 0.0 else !total /. float_of_int !count

let of_movable_macro (d : Design.t) i =
  let c = Design.cell d i in
  if Types.is_fixed_kind c.Types.c_kind then invalid_arg "Dgroup.of_movable_macro: fixed cell";
  {
    group = Groups.make c.Types.c_name [| [| i |] |];
    cells = [| i |];
    off_x = [| c.Types.c_width /. 2.0 |];
    off_y = [| c.Types.c_height /. 2.0 |];
    width = c.Types.c_width;
    height = c.Types.c_height;
  }

let movable_macros (d : Design.t) =
  Array.to_list (Design.movable_ids d)
  |> List.filter (fun i ->
         (Design.cell d i).Types.c_height > d.Design.row_height +. 1e-9)

let src = Logs.Src.create "dpp.structure" ~doc:"datapath structure handling"

module Log = (val Logs.src_log src : Logs.LOG)

let fits (d : Design.t) g dg =
  let die = d.Design.die in
  if dg.width > Rect.width die || dg.height > Rect.height die then begin
    Log.warn (fun m ->
        m "group %s (%.0fx%.0f) larger than the die; dropping its alignment"
          g.Groups.g_name dg.width dg.height);
    false
  end
  else true

let build_all (d : Design.t) groups =
  List.filter_map
    (fun g ->
      let dg = build d g in
      if fits d g dg then Some dg else None)
    groups

(* Greedy chain ordering: repeatedly attach, at either end of the path, the
   unplaced node most strongly connected to that end.  [w] is a symmetric
   dense weight matrix.  Returns a permutation: order.(node) = position. *)
let chain_order w n =
  if n = 1 then [| 0 |]
  else begin
    let placed = Array.make n false in
    (* start at the node with the largest total weight (a hub of the
       dataflow), ties to the lowest index for determinism *)
    let total k = Array.fold_left ( +. ) 0.0 w.(k) in
    let start = ref 0 in
    for k = 1 to n - 1 do
      if total k > total !start then start := k
    done;
    placed.(!start) <- true;
    let path = ref [ !start ] in
    (* path kept as list, head = left end; we track both ends *)
    for _ = 2 to n do
      let head = List.hd !path in
      let tail = List.nth !path (List.length !path - 1) in
      let best = ref None in
      for k = 0 to n - 1 do
        if not placed.(k) then begin
          let wh = w.(head).(k) and wt = w.(tail).(k) in
          let cand = if wh >= wt then wh, `Head, k else wt, `Tail, k in
          match !best, cand with
          | None, _ -> best := Some cand
          | Some (bw, _, _), (cw, _, _) when cw > bw -> best := Some cand
          | Some _, _ -> ()
        end
      done;
      match !best with
      | Some (_, `Head, k) ->
        placed.(k) <- true;
        path := k :: !path
      | Some (_, `Tail, k) ->
        placed.(k) <- true;
        path := !path @ [ k ]
      | None -> ()
    done;
    let order = Array.make n 0 in
    List.iteri (fun pos k -> order.(k) <- pos) !path;
    order
  end

(* Pearson sign between chain position and the mean coordinate: a negative
   correlation means the chain runs against the initial placement (and
   against any bus-connected neighbour group), so flip it. *)
let orient order means n =
  let fpos = Array.init n (fun k -> float_of_int order.(k)) in
  if Dpp_util.Statx.pearson fpos means < 0.0 then
    Array.map (fun p -> n - 1 - p) order
  else order

(* Inter-column / inter-row connection weights from the nets touching the
   group; each net contributes 1/(k-1) per pair to keep big nets gentle. *)
let connection_weights (d : Design.t) g =
  let slices = Groups.num_slices g and stages = Groups.num_stages g in
  let stage_of = Hashtbl.create 64 and slice_of = Hashtbl.create 64 in
  for s = 0 to slices - 1 do
    for k = 0 to stages - 1 do
      let c = g.Groups.g_rows.(s).(k) in
      if c >= 0 then begin
        Hashtbl.replace stage_of c k;
        Hashtbl.replace slice_of c s
      end
    done
  done;
  let w_stage = Array.make_matrix stages stages 0.0 in
  let w_slice = Array.make_matrix slices slices 0.0 in
  Array.iter
    (fun (net : Types.net) ->
      let members =
        Array.to_list net.Types.n_pins
        |> List.filter_map (fun p ->
               let c = (Design.pin d p).Types.p_cell in
               match Hashtbl.find_opt stage_of c, Hashtbl.find_opt slice_of c with
               | Some k, Some s -> Some (c, k, s)
               | _, _ -> None)
        |> List.sort_uniq compare
      in
      let m = List.length members in
      if m >= 2 then begin
        let inc = 1.0 /. float_of_int (m - 1) in
        List.iter
          (fun (c1, k1, s1) ->
            List.iter
              (fun (c2, k2, s2) ->
                if c1 < c2 then begin
                  if k1 <> k2 then begin
                    w_stage.(k1).(k2) <- w_stage.(k1).(k2) +. inc;
                    w_stage.(k2).(k1) <- w_stage.(k2).(k1) +. inc
                  end;
                  if s1 <> s2 then begin
                    w_slice.(s1).(s2) <- w_slice.(s1).(s2) +. inc;
                    w_slice.(s2).(s1) <- w_slice.(s2).(s1) +. inc
                  end
                end)
              members)
          members
      end)
    d.Design.nets;
  w_stage, w_slice

let axis_means g ~cx ~cy =
  let slices = Groups.num_slices g and stages = Groups.num_stages g in
  let stage_mean = Array.make stages 0.0 and stage_n = Array.make stages 0 in
  let slice_mean = Array.make slices 0.0 and slice_n = Array.make slices 0 in
  for s = 0 to slices - 1 do
    for k = 0 to stages - 1 do
      let c = g.Groups.g_rows.(s).(k) in
      if c >= 0 then begin
        stage_mean.(k) <- stage_mean.(k) +. cx.(c);
        stage_n.(k) <- stage_n.(k) + 1;
        slice_mean.(s) <- slice_mean.(s) +. cy.(c);
        slice_n.(s) <- slice_n.(s) + 1
      end
    done
  done;
  for k = 0 to stages - 1 do
    if stage_n.(k) > 0 then stage_mean.(k) <- stage_mean.(k) /. float_of_int stage_n.(k)
  done;
  for s = 0 to slices - 1 do
    if slice_n.(s) > 0 then slice_mean.(s) <- slice_mean.(s) /. float_of_int slice_n.(s)
  done;
  stage_mean, slice_mean

let build_all_ordered (d : Design.t) groups ~cx ~cy =
  List.filter_map
    (fun g ->
      let slices = Groups.num_slices g and stages = Groups.num_stages g in
      let w_stage, w_slice = connection_weights d g in
      let stage_mean, slice_mean = axis_means g ~cx ~cy in
      let stage_order = orient (chain_order w_stage stages) stage_mean stages in
      let slice_order = orient (chain_order w_slice slices) slice_mean slices in
      let dg = build ~stage_order ~slice_order d g in
      if fits d g dg then Some dg else None)
    groups

let origin_of_positions t ~cx ~cy =
  let n = Array.length t.cells in
  let sx = ref 0.0 and sy = ref 0.0 in
  for i = 0 to n - 1 do
    let c = t.cells.(i) in
    sx := !sx +. (cx.(c) -. t.off_x.(i));
    sy := !sy +. (cy.(c) -. t.off_y.(i))
  done;
  !sx /. float_of_int n, !sy /. float_of_int n

let alignment_error t ~cx ~cy =
  let gx, gy = origin_of_positions t ~cx ~cy in
  let n = Array.length t.cells in
  let acc = ref 0.0 in
  for i = 0 to n - 1 do
    let c = t.cells.(i) in
    let dx = cx.(c) -. (gx +. t.off_x.(i)) in
    let dy = cy.(c) -. (gy +. t.off_y.(i)) in
    acc := !acc +. (dx *. dx) +. (dy *. dy)
  done;
  sqrt (!acc /. float_of_int n)
