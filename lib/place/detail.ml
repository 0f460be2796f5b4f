module Design = Dpp_netlist.Design
module Soa = Dpp_netlist.Soa
module Pins = Dpp_wirelen.Pins
module Netbox = Dpp_wirelen.Netbox
module Pool = Dpp_par.Pool

type stats = { passes : int; reorder_gain : float; swap_gain : float; moves : int }

let permutations3 = [ [ 0; 1; 2 ]; [ 0; 2; 1 ]; [ 1; 0; 2 ]; [ 1; 2; 0 ]; [ 2; 0; 1 ]; [ 2; 1; 0 ] ]

(* Multi-row movable cells are never reordered, swapped or moved (a tall
   cell in a single-row slot would overlap the adjacent row); they still
   block gaps through the occupancy index, like Flip skips them. *)
let single_row (s : Soa.t) i = s.Soa.height.(i) <= s.Soa.row_height +. 1e-9

let by_x cx a b =
  let c = Float.compare cx.(a) cx.(b) in
  if c <> 0 then c else compare a b

(* Every pass follows the evaluate-parallel/commit-serial scheme: worker
   domains score candidates with the read-only {!Netbox.eval_moves}
   against the committed coordinate snapshot, writing proposals into
   per-chunk buffers; then a serial phase walks the chunks in ascending
   order, re-stages each proposal transactionally and re-checks [delta]
   against the then-current state (earlier commits may have consumed the
   gain), committing only the still-improving ones.  Chunk boundaries and
   scan orders depend on the design alone, so the result is bit-identical
   at every worker count. *)

let reorder_pass (s : Soa.t) pool nb skip (legal : Legal.t) =
  let cx = legal.Legal.cx and cy = legal.Legal.cy in
  let nrows = s.Soa.num_rows in
  (* rows -> cells sorted by x *)
  let per_row = Array.make nrows [] in
  for i = Soa.num_cells s - 1 downto 0 do
    let r = legal.Legal.assignment.(i) in
    if r >= 0 && (not (skip i)) && single_row s i then per_row.(r) <- i :: per_row.(r)
  done;
  let proposals = Array.make Pool.chunk_count [] in
  Pool.iter_chunks pool ~n:nrows (fun ~worker:_ ~chunk ~lo ~hi ->
      let props = ref [] in
      let xs = Array.make 3 0.0 and ys = Array.make 3 0.0 in
      for r = lo to hi - 1 do
        let cells = List.sort (by_x cx) per_row.(r) |> Array.of_list in
        let n = Array.length cells in
        let idx = ref 0 in
        while !idx + 2 < n do
          let w3 = [| cells.(!idx); cells.(!idx + 1); cells.(!idx + 2) |] in
          (* contiguity check: reordering across a gap/obstacle would move
             cells into occupied space *)
          let widths = Array.map (fun i -> s.Soa.width.(i)) w3 in
          let left =
            Array.fold_left min infinity
              (Array.mapi (fun k i -> cx.(i) -. (widths.(k) /. 2.0)) w3)
          in
          let total = widths.(0) +. widths.(1) +. widths.(2) in
          let right =
            Array.fold_left max neg_infinity
              (Array.mapi (fun k i -> cx.(i) +. (widths.(k) /. 2.0)) w3)
          in
          let accepted = ref false in
          if right -. left <= total +. 1e-6 then begin
            (* repack in permuted order from the left edge; keep the best
               strictly-improving permutation *)
            let best = ref 0.0 and best_perm = ref None in
            List.iter
              (fun perm ->
                let cursor = ref left in
                List.iter
                  (fun k ->
                    let w = widths.(k) in
                    xs.(k) <- !cursor +. (w /. 2.0);
                    ys.(k) <- cy.(w3.(k));
                    cursor := !cursor +. w)
                  perm;
                let delta = Netbox.eval_moves nb ~k:3 w3 xs ys in
                if delta < !best -. 1e-9 then begin
                  best := delta;
                  best_perm := Some perm
                end)
              permutations3;
            match !best_perm with
            | Some perm ->
              props := (left, w3, widths, perm) :: !props;
              accepted := true;
              (* windows of one proposal never overlap the next *)
              idx := !idx + 3
            | None -> ()
          end;
          if not !accepted then incr idx
        done
      done;
      proposals.(chunk) <- List.rev !props);
  let gain = ref 0.0 and moves = ref 0 in
  Array.iter
    (List.iter (fun (left, w3, widths, perm) ->
         let cursor = ref left in
         List.iter
           (fun k ->
             let i = w3.(k) in
             let w = widths.(k) in
             Netbox.move_cell nb i (!cursor +. (w /. 2.0)) cy.(i);
             cursor := !cursor +. w)
           perm;
         let delta = Netbox.delta nb in
         if delta < -1e-9 then begin
           Netbox.commit nb;
           gain := !gain -. delta;
           incr moves
         end
         else Netbox.rollback nb))
    proposals;
  !gain, !moves

let swap_pass (s : Soa.t) pool nb skip (legal : Legal.t) =
  let cx = legal.Legal.cx and cy = legal.Legal.cy in
  (* bucket by exact footprint (bitwise width and height), then by x
     order: candidates are the nearest few in the same bucket.  The old
     key quantized width to 1/16 site, so cells of slightly different
     widths could be swapped into overlap. *)
  let buckets = Hashtbl.create 16 in
  for i = 0 to Soa.num_cells s - 1 do
    if
      Dpp_util.Compact.I8.get s.Soa.kind i = Soa.kind_movable
      && legal.Legal.assignment.(i) >= 0
      && (not (skip i))
      && single_row s i
    then begin
      let key = Int64.bits_of_float s.Soa.width.(i), Int64.bits_of_float s.Soa.height.(i) in
      Hashtbl.replace buckets key (i :: Option.value ~default:[] (Hashtbl.find_opt buckets key))
    end
  done;
  let keys = Hashtbl.fold (fun k _ acc -> k :: acc) buckets [] |> List.sort compare in
  let cands = ref [] in
  List.iter
    (fun key ->
      let arr = Array.of_list (Hashtbl.find buckets key) in
      Array.sort (by_x cx) arr;
      let n = Array.length arr in
      for k = 0 to n - 2 do
        (* try swapping with the next few cells in x order that sit on a
           different row *)
        let i = arr.(k) in
        for kj = k + 1 to min (n - 1) (k + 4) do
          let j = arr.(kj) in
          if legal.Legal.assignment.(i) <> legal.Legal.assignment.(j) then
            cands := (i, j) :: !cands
        done
      done)
    keys;
  let cands = Array.of_list (List.rev !cands) in
  let proposals = Array.make Pool.chunk_count [] in
  Pool.iter_chunks pool ~n:(Array.length cands) (fun ~worker:_ ~chunk ~lo ~hi ->
      let props = ref [] in
      let cells = Array.make 2 0 and xs = Array.make 2 0.0 and ys = Array.make 2 0.0 in
      for q = lo to hi - 1 do
        let i, j = cands.(q) in
        cells.(0) <- i;
        cells.(1) <- j;
        xs.(0) <- cx.(j);
        ys.(0) <- cy.(j);
        xs.(1) <- cx.(i);
        ys.(1) <- cy.(i);
        if Netbox.eval_moves nb ~k:2 cells xs ys < -1e-9 then props := (i, j) :: !props
      done;
      proposals.(chunk) <- List.rev !props);
  let gain = ref 0.0 and moves = ref 0 in
  Array.iter
    (List.iter (fun (i, j) ->
         (* earlier commits may have moved either cell; exchanging the
            current positions of two equal-footprint cells stays legal,
            but same-row pairs are no longer swaps *)
         if legal.Legal.assignment.(i) <> legal.Legal.assignment.(j) then begin
           let xi = cx.(i) and yi = cy.(i) and xj = cx.(j) and yj = cy.(j) in
           Netbox.move_cell nb i xj yj;
           Netbox.move_cell nb j xi yi;
           let delta = Netbox.delta nb in
           if delta < -1e-9 then begin
             Netbox.commit nb;
             let ri = legal.Legal.assignment.(i) in
             legal.Legal.assignment.(i) <- legal.Legal.assignment.(j);
             legal.Legal.assignment.(j) <- ri;
             gain := !gain -. delta;
             incr moves
           end
           else Netbox.rollback nb
         end))
    proposals;
  !gain, !moves

(* FastDP-style global move: each cell has an "optimal region" -- the
   median interval of its incident nets' bounding boxes computed without
   the cell itself.  A cell outside its region is moved into a free gap
   near the region if that lowers the HPWL of its nets. *)
let move_pass (d : Design.t) (s : Soa.t) pool nb skip bound (legal : Legal.t) =
  let cx = legal.Legal.cx and cy = legal.Legal.cy in
  let occ = Occ.build ~soa:s d ~cx ~cy in
  let die = d.Design.die in
  (* median interval of incident-net spans along one axis, cell excluded *)
  let optimal_region i axis_pos =
    let los = ref [] and his = ref [] in
    Soa.iter_nets_of_cell s i (fun n ->
        let lo = ref infinity and hi = ref neg_infinity in
        Soa.iter_cells_of_net s n (fun c ->
            if c <> i then begin
              let v = axis_pos c in
              if v < !lo then lo := v;
              if v > !hi then hi := v
            end);
        if !lo <= !hi then begin
          los := !lo :: !los;
          his := !hi :: !his
        end);
    match !los with
    | [] -> None
    | _ ->
      let med l =
        let a = Array.of_list l in
        Array.sort Float.compare a;
        a.(Array.length a / 2)
      in
      let lo = med !los and hi = med !his in
      Some (min lo hi, max lo hi)
  in
  let site = d.Design.site_width in
  let align_up v =
    die.Dpp_geom.Rect.xl +. (ceil (((v -. die.Dpp_geom.Rect.xl) /. site) -. 1e-9) *. site)
  in
  let cands =
    Array.to_list (Design.movable_ids d)
    |> List.filter (fun i ->
           (not (skip i)) && legal.Legal.assignment.(i) >= 0 && single_row s i)
    |> Array.of_list
  in
  let proposals = Array.make Pool.chunk_count [] in
  Pool.iter_chunks pool ~n:(Array.length cands) (fun ~worker:_ ~chunk ~lo ~hi ->
      let props = ref [] in
      let cell1 = Array.make 1 0 and xs1 = Array.make 1 0.0 and ys1 = Array.make 1 0.0 in
      for q = lo to hi - 1 do
        let i = cands.(q) in
        let w = s.Soa.width.(i) in
        match optimal_region i (fun c -> cx.(c)), optimal_region i (fun c -> cy.(c)) with
        | Some (xlo, xhi), Some (ylo, yhi) ->
          let tx = min (max cx.(i) xlo) xhi and ty = min (max cy.(i) ylo) yhi in
          let already_there =
            abs_float (tx -. cx.(i)) < 1.0 && abs_float (ty -. cy.(i)) < d.Design.row_height
          in
          if not already_there then begin
            let target_row = Design.row_of_y d (ty -. (s.Soa.height.(i) /. 2.0)) in
            (* search free gaps in rows near the target; in region-bounded
               mode (incremental ECO) a candidate slot must keep the whole
               cell inside the bound *)
            let slot_ok r cand_cx =
              match bound with
              | None -> true
              | Some (b : Dpp_geom.Rect.t) ->
                let y_lo = Design.row_y d r in
                cand_cx -. (w /. 2.0) >= b.Dpp_geom.Rect.xl -. 1e-9
                && cand_cx +. (w /. 2.0) <= b.Dpp_geom.Rect.xh +. 1e-9
                && y_lo >= b.Dpp_geom.Rect.yl -. 1e-9
                && y_lo +. d.Design.row_height <= b.Dpp_geom.Rect.yh +. 1e-9
            in
            let best = ref None in
            for dr = -1 to 1 do
              let r = target_row + dr in
              if r >= 0 && r < d.Design.num_rows then begin
                let row_cy = Design.row_y d r +. (d.Design.row_height /. 2.0) in
                match Occ.best_gap occ r ~w ~tx ~align:align_up with
                | Some (gcost, cand_cx) when slot_ok r cand_cx ->
                  let cost = gcost +. abs_float (row_cy -. ty) in
                  (match !best with
                  | Some (bc, _, _) when bc <= cost -> ()
                  | Some _ | None -> best := Some (cost, r, cand_cx))
                | Some _ | None -> ()
              end
            done;
            match !best with
            | Some (_, r, cand_cx) ->
              cell1.(0) <- i;
              xs1.(0) <- cand_cx;
              ys1.(0) <- Design.row_y d r +. (d.Design.row_height /. 2.0);
              if Netbox.eval_moves nb ~k:1 cell1 xs1 ys1 < -1e-9 then
                props := (i, r, cand_cx) :: !props
            | None -> ()
          end
        | _, _ -> ()
      done;
      proposals.(chunk) <- List.rev !props);
  let gain = ref 0.0 and moves = ref 0 in
  Array.iter
    (List.iter (fun (i, r, cand_cx) ->
         let w = s.Soa.width.(i) in
         let xl = cand_cx -. (w /. 2.0) and xh = cand_cx +. (w /. 2.0) in
         (* an earlier commit may have taken the gap *)
         if Occ.is_free occ r ~xl ~xh ~ignore:i then begin
           let orow = legal.Legal.assignment.(i) in
           Netbox.move_cell nb i cand_cx (Design.row_y d r +. (d.Design.row_height /. 2.0));
           let delta = Netbox.delta nb in
           if delta < -1e-9 then begin
             Netbox.commit nb;
             legal.Legal.assignment.(i) <- r;
             Occ.remove occ ~row:orow ~cell:i;
             Occ.insert occ ~row:r ~cell:i ~xl ~xh;
             gain := !gain -. delta;
             incr moves
           end
           else Netbox.rollback nb
         end))
    proposals;
  !gain, !moves

let run (d : Design.t) ?(pool = Pool.serial) ?(max_passes = 3) ?(skip = fun _ -> false) ?bound
    ~netbox:nb ~legal () =
  let s = (Netbox.pins nb).Pins.soa in
  let reorder_gain = ref 0.0 and swap_gain = ref 0.0 and moves = ref 0 in
  let pass = ref 0 in
  let improved = ref true in
  while !improved && !pass < max_passes do
    incr pass;
    let g1, m1 = reorder_pass s pool nb skip legal in
    let g2, m2 = swap_pass s pool nb skip legal in
    let g3, m3 = move_pass d s pool nb skip bound legal in
    reorder_gain := !reorder_gain +. g1;
    swap_gain := !swap_gain +. g2 +. g3;
    moves := !moves + m1 + m2 + m3;
    improved := g1 +. g2 +. g3 > 1e-6
  done;
  { passes = !pass; reorder_gain = !reorder_gain; swap_gain = !swap_gain; moves = !moves }
