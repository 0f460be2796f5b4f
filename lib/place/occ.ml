(* Per-row occupancy index for the detailed-placement move pass.  Each row
   keeps its placed entries sorted by left edge in parallel arrays, so gap
   queries binary-search to the target and expand outward with distance
   pruning, and an accepted move is two O(entries-shifted) splices instead
   of the old List.filter + full re-sort. *)

module Design = Dpp_netlist.Design
module Soa = Dpp_netlist.Soa
module Rect = Dpp_geom.Rect

type t = {
  xls : float array array;  (* per row, sorted ascending *)
  xhs : float array array;
  cells : int array array;  (* -1 for fixed pseudo-entries *)
  lens : int array;
  maxw : float array;  (* upper bound on any entry width in the row *)
  die_xl : float;
  die_xh : float;
}

let num_rows t = Array.length t.lens

let row_entries t r = List.init t.lens.(r) (fun k -> t.xls.(r).(k), t.xhs.(r).(k), t.cells.(r).(k))

let build ~soa:(s : Soa.t) (d : Design.t) ~cx ~cy =
  let nrows = d.Design.num_rows in
  let rows = Array.make nrows [] in
  for i = Soa.num_cells s - 1 downto 0 do
    let kind = Dpp_util.Compact.I8.get s.Soa.kind i in
    if kind = Soa.kind_movable then begin
      let h = s.Soa.height.(i) and w = s.Soa.width.(i) in
      let r0 = Design.row_of_y d (cy.(i) -. (h /. 2.0) +. 1e-9) in
      let r1 = Design.row_of_y d (cy.(i) +. (h /. 2.0) -. 1e-9) in
      for r = max 0 r0 to min (nrows - 1) r1 do
        rows.(r) <- (cx.(i) -. (w /. 2.0), cx.(i) +. (w /. 2.0), i) :: rows.(r)
      done
    end
    else if kind = Soa.kind_fixed then begin
      let rect = Soa.cell_rect s i in
      let r0 = Design.row_of_y d (rect.Rect.yl +. 1e-9) in
      let r1 = Design.row_of_y d (rect.Rect.yh -. 1e-9) in
      for r = max 0 r0 to min (nrows - 1) r1 do
        rows.(r) <- (rect.Rect.xl, rect.Rect.xh, -1) :: rows.(r)
      done
    end
  done;
  let xls = Array.make nrows [||] and xhs = Array.make nrows [||] in
  let cells = Array.make nrows [||] and lens = Array.make nrows 0 in
  let maxw = Array.make nrows 0.0 in
  Array.iteri
    (fun r l ->
      let a = Array.of_list (List.sort compare l) in
      let n = Array.length a in
      xls.(r) <- Array.make (max 8 n) 0.0;
      xhs.(r) <- Array.make (max 8 n) 0.0;
      cells.(r) <- Array.make (max 8 n) (-1);
      lens.(r) <- n;
      Array.iteri
        (fun k (xl, xh, c) ->
          xls.(r).(k) <- xl;
          xhs.(r).(k) <- xh;
          cells.(r).(k) <- c;
          if xh -. xl > maxw.(r) then maxw.(r) <- xh -. xl)
        a)
    rows;
  { xls; xhs; cells; lens; maxw; die_xl = d.Design.die.Rect.xl; die_xh = d.Design.die.Rect.xh }

(* First entry of row [r] with xl >= x, i.e. count of entries left of x. *)
let lower_bound t r x =
  let xls = t.xls.(r) in
  let l = ref 0 and h = ref t.lens.(r) in
  while !l < !h do
    let m = (!l + !h) / 2 in
    if xls.(m) < x then l := m + 1 else h := m
  done;
  !l

let best_gap t r ~w ~tx ~align =
  (* Gap k is the free span between entry k-1's right edge and entry k's
     left edge (die boundaries at the ends); overlapping entries make a
     gap empty, which the width test rejects.  Scan outward from the gap
     nearest the target center [tx], pruning on the distance lower bounds
     the sorted order gives. *)
  let n = t.lens.(r) in
  let xls = t.xls.(r) and xhs = t.xhs.(r) in
  let gap_lo k = if k = 0 then t.die_xl else xhs.(k - 1) in
  let gap_hi k = if k = n then t.die_xh else xls.(k) in
  let best = ref None in
  let best_cost = ref infinity in
  let consider k =
    let lo = gap_lo k and hi = gap_hi k in
    if hi -. lo >= w then begin
      let xl = align (min (max (tx -. (w /. 2.0)) lo) (hi -. w)) in
      if xl >= lo -. 1e-9 && xl +. w <= hi +. 1e-9 then begin
        let cand_cx = xl +. (w /. 2.0) in
        let cost = abs_float (cand_cx -. tx) in
        if cost < !best_cost then begin
          best_cost := cost;
          best := Some (cost, cand_cx)
        end
      end
    end
  in
  let k0 = lower_bound t r tx in
  consider k0;
  (* rightward gaps start at xhs.(k-1) >= xls.(k-1) >= tx, so the candidate
     center is at least gap_lo + w/2 - tx away from the target *)
  let k = ref (k0 + 1) in
  while !k <= n && gap_lo !k +. (w /. 2.0) -. tx < !best_cost do
    consider !k;
    incr k
  done;
  (* leftward gaps end at xls.(k) <= tx *)
  let k = ref (k0 - 1) in
  while !k >= 0 && tx -. (gap_hi !k -. (w /. 2.0)) < !best_cost do
    consider !k;
    decr k
  done;
  !best

let is_free t r ~xl ~xh ~ignore =
  (* any entry overlapping [xl, xh) (beyond a 1e-9 sliver) other than
     [ignore]?  Entries left of xl - maxw cannot reach xl. *)
  let n = t.lens.(r) in
  let xls = t.xls.(r) and xhs = t.xhs.(r) and cells = t.cells.(r) in
  let k = ref (lower_bound t r (xl -. t.maxw.(r))) in
  let free = ref true in
  while !free && !k < n && xls.(!k) < xh -. 1e-9 do
    if cells.(!k) <> ignore && xhs.(!k) > xl +. 1e-9 then free := false;
    incr k
  done;
  !free

let remove t ~row ~cell =
  let n = t.lens.(row) in
  let cells = t.cells.(row) in
  let k = ref (-1) in
  for q = 0 to n - 1 do
    if cells.(q) = cell then k := q
  done;
  if !k >= 0 then begin
    Array.blit t.xls.(row) (!k + 1) t.xls.(row) !k (n - !k - 1);
    Array.blit t.xhs.(row) (!k + 1) t.xhs.(row) !k (n - !k - 1);
    Array.blit cells (!k + 1) cells !k (n - !k - 1);
    t.lens.(row) <- n - 1
  end

let insert t ~row ~cell ~xl ~xh =
  let n = t.lens.(row) in
  if n + 1 > Array.length t.xls.(row) then begin
    let cap = max (n + 1) (2 * Array.length t.xls.(row)) in
    let grow a fill =
      let b = Array.make cap fill in
      Array.blit a 0 b 0 n;
      b
    in
    t.xls.(row) <- grow t.xls.(row) 0.0;
    t.xhs.(row) <- grow t.xhs.(row) 0.0;
    t.cells.(row) <- grow t.cells.(row) (-1)
  end;
  let k = lower_bound t row xl in
  Array.blit t.xls.(row) k t.xls.(row) (k + 1) (n - k);
  Array.blit t.xhs.(row) k t.xhs.(row) (k + 1) (n - k);
  Array.blit t.cells.(row) k t.cells.(row) (k + 1) (n - k);
  t.xls.(row).(k) <- xl;
  t.xhs.(row).(k) <- xh;
  t.cells.(row).(k) <- cell;
  t.lens.(row) <- n + 1;
  if xh -. xl > t.maxw.(row) then t.maxw.(row) <- xh -. xl
