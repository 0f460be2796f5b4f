module Design = Dpp_netlist.Design
module Soa = Dpp_netlist.Soa
module Rect = Dpp_geom.Rect
module Pool = Dpp_par.Pool

type t = {
  assignment : int array;
  cx : float array;
  cy : float array;
  failed : int list;
}

let src = Logs.Src.create "dpp.legal" ~doc:"legalization"

module Log = (val Logs.src_log src : Logs.LOG)

(* Free segments of row [r]: the die span minus obstacle x-intervals, as
   ascending (lo, hi) pairs.  Each segment is shrunk inward to the site
   grid (origin [die.xl]): obstacles need not be site-aligned (foreign
   benchmarks, pad rings at fractional x), but placed cells are, so a
   cell flush against a fractional segment edge would be pushed into the
   obstacle by the later site snap.  Aligning here makes the capacity the
   legalizer fits against and the positions Abacus emits agree. *)
let row_segments (d : Design.t) obstacles r =
  let die = d.Design.die in
  let site = d.Design.site_width in
  let align_up v = die.Rect.xl +. (ceil (((v -. die.Rect.xl) /. site) -. 1e-9) *. site) in
  let align_down v = die.Rect.xl +. (floor (((v -. die.Rect.xl) /. site) +. 1e-9) *. site) in
  let y_lo = Design.row_y d r and y_hi = Design.row_y d r +. d.Design.row_height in
  let blocked =
    List.filter_map
      (fun (ob : Rect.t) ->
        if ob.Rect.yl < y_hi -. 1e-9 && ob.Rect.yh > y_lo +. 1e-9 then
          Some (max die.Rect.xl ob.Rect.xl, min die.Rect.xh ob.Rect.xh)
        else None)
      obstacles
    |> List.sort compare
  in
  let segments = ref [] in
  let add lo hi =
    let lo = align_up lo and hi = align_down hi in
    if hi -. lo > 1e-9 then segments := (lo, hi) :: !segments
  in
  let cursor = ref die.Rect.xl in
  List.iter
    (fun (lo, hi) ->
      if lo > !cursor then add !cursor lo;
      cursor := max !cursor hi)
    blocked;
  if !cursor < die.Rect.xh then add !cursor die.Rect.xh;
  List.rev !segments

let row_segments_for_test = row_segments

(* ----- Abacus row packing -----

   Abacus (Spindler-Schlichtmann-Johannes) re-places each row's cells at
   the minimum total squared displacement from their global-placement
   targets, by the classical cluster-merging dynamic program, run
   independently per free segment; every cell is then snapped to the
   site grid.  One cluster: [e] total weight, [w] total width, [q] the
   weighted sum of (target - offset) terms, [x] the placed left edge,
   [cells] in order. *)
type cluster = {
  mutable e : float;
  mutable q : float;
  mutable w : float;
  mutable x : float;
  mutable cells : int list;  (** reversed *)
}

let place_cluster ~lo ~hi c =
  let x = c.q /. c.e in
  c.x <- max lo (min (hi -. c.w) x)

(* Pack every assigned cell into its row's free segment ([segments], the
   unclipped spans the row assignment was carved from), moving [cx] in
   place; [target_cx] holds the global-placement centers. *)
let pack (d : Design.t) (s : Soa.t) ~segments ~assignment ~target_cx ~cx =
  let nrows = Array.length segments in
  let per_row = Array.make nrows [] in
  for i = Array.length assignment - 1 downto 0 do
    let r = assignment.(i) in
    if r >= 0 then per_row.(r) <- i :: per_row.(r)
  done;
  let site = d.Design.site_width in
  let origin = d.Design.die.Rect.xl in
  let align_up v = origin +. (ceil (((v -. origin) /. site) -. 1e-9) *. site) in
  let align_round v = origin +. (Float.round ((v -. origin) /. site) *. site) in
  for r = 0 to nrows - 1 do
    (* each segment takes the row's cells whose legalized outline lies in
       it (decided before any segment moves a cell), ordered by GP target
       left edge *)
    let by_segment =
      if per_row.(r) = [] then []
      else
        List.map
          (fun (lo, hi) ->
            ( lo,
              hi,
              List.filter_map
                (fun i ->
                  let w = s.Soa.width.(i) in
                  let xl = cx.(i) -. (w /. 2.0) in
                  if xl >= lo -. 1e-6 && xl +. w <= hi +. 1e-6 then
                    Some (target_cx.(i) -. (w /. 2.0), w, i)
                  else None)
                per_row.(r)
              |> List.sort compare ))
          segments.(r)
    in
    List.iter
      (fun (lo, hi, ordered) ->
        let stack = ref [] in
        List.iter
          (fun (xl_target, w, i) ->
            let c = { e = 1.0; q = xl_target; w; x = 0.0; cells = [ i ] } in
            place_cluster ~lo ~hi c;
            let rec collapse c =
              match !stack with
              | prev :: rest when prev.x +. prev.w > c.x +. 1e-9 ->
                (* merge c into prev *)
                prev.q <- prev.q +. c.q -. (c.e *. prev.w);
                prev.e <- prev.e +. c.e;
                prev.w <- prev.w +. c.w;
                prev.cells <- c.cells @ prev.cells;
                stack := rest;
                place_cluster ~lo ~hi prev;
                collapse prev
              | _ -> stack := c :: !stack
            in
            collapse c)
          ordered;
        (* emit positions, snapped to the site grid with a left-to-right
           aligned cursor so no overlap can reappear; cell widths are
           site multiples so alignment is preserved along the row *)
        let cursor = ref (align_up lo) in
        List.iter
          (fun cluster ->
            let start = max !cursor (align_round cluster.x) in
            (* pull back (aligned) if the cluster would stick out *)
            let start =
              if start +. cluster.w > hi +. 1e-9 then
                max !cursor (align_round (hi -. cluster.w) -. site)
              else start
            in
            cursor := start;
            List.iter
              (fun i ->
                let w = s.Soa.width.(i) in
                cx.(i) <- !cursor +. (w /. 2.0);
                cursor := !cursor +. w)
              (List.rev cluster.cells))
          (List.rev !stack))
      by_segment
  done

(* Greedy free-interval legalization, parallel over row chunks.

   Rows are split into the pool's fixed 16 chunks; each chunk owns its
   rows' {!Intervals} stores and legalizes the cells whose target row
   falls inside it, in ascending (target_x, id) order.  A cell is
   committed chunk-locally only when no row {e outside} the chunk could
   beat or tie the local best (the vertical distance to the nearest
   foreign row alone already costs more); otherwise it is spilled.
   Spills are resolved in a serial merge pass, ascending chunk order,
   searching every row.  Chunk boundaries depend only on the row count,
   chunk-local work only on the chunk's own rows and bucket, and the
   merge order is fixed — so the assignment is bit-identical at every
   worker count.

   Unlike cursor-based Tetris this never strands capacity behind a
   cursor, so it only fails when the die is genuinely overfull.  Within
   a row set, the search expands outward from the target row and stops
   once the vertical displacement alone exceeds the best cost found. *)
let run (d : Design.t) ?(pool = Pool.serial) ?(extra_obstacles = [])
    ?(skip = fun _ -> false) ?bound ~soa:(s : Soa.t) ~cx ~cy () =
  let nc = Soa.num_cells s in
  let nrows = d.Design.num_rows in
  let rh = d.Design.row_height in
  (* region-bounded mode: only rows overlapping [bound] get free
     intervals, and those intervals are clipped to the bound's x-span, so
     every legalized cell lands inside the bound.  Target rows are clamped
     into the bound; everything else (chunking, spill merge) is untouched,
     so the bounded run keeps the worker-count determinism contract. *)
  let row_lo, row_hi =
    match bound with
    | None -> 0, nrows
    | Some (b : Rect.t) ->
      let lo = Design.row_of_y d (b.Rect.yl +. 1e-9) in
      let hi = Design.row_of_y d (b.Rect.yh -. 1e-9) + 1 in
      max 0 lo, min nrows (max hi (lo + 1))
  in
  let clip_segments segs =
    match bound with
    | None -> segs
    | Some (b : Rect.t) ->
      List.filter_map
        (fun (lo, hi) ->
          let lo = max lo b.Rect.xl and hi = min hi b.Rect.xh in
          if hi -. lo > 1e-9 then Some (lo, hi) else None)
        segs
  in
  let fixed_rects = ref [] in
  for i = nc - 1 downto 0 do
    if Dpp_util.Compact.I8.get s.Soa.kind i = Soa.kind_fixed then
      match Rect.intersection (Soa.cell_rect s i) d.Design.die with
      | Some r -> fixed_rects := r :: !fixed_rects
      | None -> ()
  done;
  let obstacles = extra_obstacles @ !fixed_rects in
  let out_cx = Array.copy cx and out_cy = Array.copy cy in
  let assignment = Array.make nc (-1) in
  let todo = ref [] in
  for i = nc - 1 downto 0 do
    if Dpp_util.Compact.I8.get s.Soa.kind i = Soa.kind_movable && not (skip i) then
      todo := (cx.(i) -. (s.Soa.width.(i) /. 2.0), i) :: !todo
  done;
  let todo = List.sort compare !todo in
  if nrows = 0 then
    { assignment; cx = out_cx; cy = out_cy; failed = List.map snd todo }
  else begin
    let stores = Array.init nrows (fun _ -> Intervals.create ()) in
    (* best (cost, row, interval index, xl) over rows [lo, hi), expanding
       outward from the target row with the vertical-displacement prune *)
    let search_rows ~lo ~hi target_row w target_xl =
      let best = ref None in
      let consider r =
        match Intervals.best_fit stores.(r) ~w ~target:target_xl with
        | None -> ()
        | Some (dx, idx, xl) ->
          let dy = abs_float (float_of_int (r - target_row)) *. rh in
          let cost = (dx *. dx) +. (dy *. dy) in
          (match !best with
          | Some (bc, _, _, _) when bc <= cost -> ()
          | Some _ | None -> best := Some (cost, r, idx, xl))
      in
      let dr = ref 0 in
      let continue_ = ref true in
      while !continue_ do
        let lo_row = target_row - !dr and hi_row = target_row + !dr in
        let any_valid = ref false in
        if lo_row >= lo && lo_row < hi then begin
          any_valid := true;
          consider lo_row
        end;
        if !dr > 0 && hi_row < hi && hi_row >= lo then begin
          any_valid := true;
          consider hi_row
        end;
        let vert = float_of_int !dr *. rh in
        (match !best with
        | Some (bc, _, _, _) when vert *. vert > bc -> continue_ := false
        | Some _ | None -> ());
        if not !any_valid then continue_ := false;
        incr dr
      done;
      !best
    in
    let accept i r idx xl w =
      Intervals.alloc stores.(r) idx ~xl ~w;
      assignment.(i) <- r;
      out_cx.(i) <- xl +. (w /. 2.0);
      out_cy.(i) <- Design.row_y d r +. (rh /. 2.0)
    in
    (* bucket cells by the chunk owning their target row *)
    let chunk_of_row = Array.make nrows 0 in
    for c = 0 to Pool.chunk_count - 1 do
      let lo, hi = Pool.chunk_bounds ~n:nrows c in
      for r = lo to hi - 1 do
        chunk_of_row.(r) <- c
      done
    done;
    let buckets = Array.make Pool.chunk_count [] in
    List.iter
      (fun (target_xl, i) ->
        let tr = Design.row_of_y d (cy.(i) -. (s.Soa.height.(i) /. 2.0)) in
        let tr = max row_lo (min (row_hi - 1) tr) in
        buckets.(chunk_of_row.(tr)) <- (target_xl, tr, i) :: buckets.(chunk_of_row.(tr)))
      todo;
    Array.iteri (fun c b -> buckets.(c) <- List.rev b) buckets;
    (* each row's free segments, unclipped: the packing step reuses them *)
    let segments = Array.make nrows [] in
    let spills = Array.make Pool.chunk_count [] in
    Pool.iter_chunks pool ~n:nrows (fun ~worker:_ ~chunk ~lo ~hi ->
        for r = lo to hi - 1 do
          if r >= row_lo && r < row_hi then segments.(r) <- row_segments d obstacles r;
          Intervals.reset stores.(r) (clip_segments segments.(r))
        done;
        let spill = ref [] in
        List.iter
          (fun (target_xl, target_row, i) ->
            let w = s.Soa.width.(i) in
            (* cheapest any row outside this chunk could possibly be *)
            let foreign_vert =
              let below = if lo > 0 then Some (target_row - lo + 1) else None in
              let above = if hi < nrows then Some (hi - target_row) else None in
              match below, above with
              | None, None -> infinity
              | Some s, None | None, Some s -> float_of_int s *. rh
              | Some a, Some b -> float_of_int (min a b) *. rh
            in
            match search_rows ~lo ~hi target_row w target_xl with
            | Some (bc, r, idx, xl) when foreign_vert *. foreign_vert > bc ->
              accept i r idx xl w
            | Some _ | None -> spill := (target_xl, target_row, i) :: !spill)
          buckets.(chunk);
        spills.(chunk) <- List.rev !spill);
    (* serial merge: spilled cells see every row, ascending chunk order *)
    let failed = ref [] in
    for c = 0 to Pool.chunk_count - 1 do
      List.iter
        (fun (target_xl, target_row, i) ->
          let w = s.Soa.width.(i) in
          match search_rows ~lo:0 ~hi:nrows target_row w target_xl with
          | Some (_, r, idx, xl) -> accept i r idx xl w
          | None ->
            Log.err (fun m ->
                m "no row fits cell %s (w=%.1f)" s.Soa.cell_name.(i) w);
            failed := i :: !failed)
        spills.(c)
    done;
    pack d s ~segments ~assignment ~target_cx:cx ~cx:out_cx;
    { assignment; cx = out_cx; cy = out_cy; failed = List.rev !failed }
  end
