module Rect = Dpp_geom.Rect
module Design = Dpp_netlist.Design
module Soa = Dpp_netlist.Soa

type t = {
  grid : Grid.t;
  movable : int array;
  cell_w : float array;  (** indexed by cell id *)
  cell_h : float array;
  radius_x : float array;
  radius_y : float array;
  normalizer : float array;
  base_normalizer : float array;
      (** the uninflated normalizers; [normalizer] is this array scaled by
          the routability loop's per-cell inflation factors *)
  target : float array;  (** per bin *)
  bin_cx : float array;  (** [Grid.bin_center_x] per column *)
  bin_cy : float array;  (** [Grid.bin_center_y] per row *)
  phi : float array;  (** scratch bin field *)
  tx_row : float array;  (** per-column theta row, hoisted across the window's rows *)
  dtx_row : float array;  (** per-column theta' row (gradient kernels) *)
}

let theta ~r d =
  let d = abs_float d in
  if d >= r then 0.0
  else if d <= r /. 2.0 then 1.0 -. (2.0 *. d *. d /. (r *. r))
  else begin
    let e = d -. r in
    2.0 *. e *. e /. (r *. r)
  end

let theta_deriv ~r d =
  let s = if d < 0.0 then -1.0 else 1.0 in
  let d = abs_float d in
  if d >= r then 0.0
  else if d <= r /. 2.0 then s *. (-4.0 *. d /. (r *. r))
  else s *. (4.0 *. (d -. r) /. (r *. r))

(* Sum of theta over an infinite regular bin lattice, evaluated once per
   distinct radius: positions the center on a bin center (the symmetric
   worst case) — the sum is nearly shift-invariant, which is all the
   normaliser needs. *)
let lattice_sum ~r ~step =
  let k = int_of_float (ceil (r /. step)) + 1 in
  let acc = ref 0.0 in
  for i = -k to k do
    acc := !acc +. theta ~r (float_of_int i *. step)
  done;
  !acc

let grid t = t.grid

let of_soa (s : Soa.t) ~grid ~target_density =
  if target_density <= 0.0 then invalid_arg "Bell.create: non-positive target density";
  let nc = Soa.num_cells s in
  (* movable ids ascending — the same id sequence [Design.movable_ids]
     yields, walked off the flat kind array *)
  let n_mov = ref 0 in
  for i = 0 to nc - 1 do
    if not (Soa.is_fixed s i) then incr n_mov
  done;
  let movable = Array.make !n_mov 0 in
  let k = ref 0 in
  for i = 0 to nc - 1 do
    if not (Soa.is_fixed s i) then begin
      movable.(!k) <- i;
      incr k
    end
  done;
  let cell_w = Array.make nc 0.0 and cell_h = Array.make nc 0.0 in
  let radius_x = Array.make nc 0.0 and radius_y = Array.make nc 0.0 in
  let normalizer = Array.make nc 0.0 in
  Array.iter
    (fun i ->
      let w = s.Soa.width.(i) and h = s.Soa.height.(i) in
      cell_w.(i) <- w;
      cell_h.(i) <- h;
      radius_x.(i) <- (w /. 2.0) +. grid.Grid.bin_w;
      radius_y.(i) <- (h /. 2.0) +. grid.Grid.bin_h;
      let sx = lattice_sum ~r:radius_x.(i) ~step:grid.Grid.bin_w in
      let sy = lattice_sum ~r:radius_y.(i) ~step:grid.Grid.bin_h in
      let sum = sx *. sy in
      normalizer.(i) <- (if sum > 0.0 then w *. h /. sum else 0.0))
    movable;
  let target = Array.map (fun cap -> target_density *. cap) grid.Grid.capacity in
  {
    grid;
    movable;
    cell_w;
    cell_h;
    radius_x;
    radius_y;
    normalizer;
    base_normalizer = Array.copy normalizer;
    target;
    bin_cx = Array.init grid.Grid.nx (Grid.bin_center_x grid);
    bin_cy = Array.init grid.Grid.ny (Grid.bin_center_y grid);
    phi = Array.make (Array.length grid.Grid.capacity) 0.0;
    tx_row = Array.make grid.Grid.nx 0.0;
    dtx_row = Array.make grid.Grid.nx 0.0;
  }

(* The normalizer makes a cell's bell contributions sum to its area, so
   scaling it by a factor >= 1 is exactly "virtual area added to the
   density model": the spreading force sees an inflated cell while the
   geometry (radii, overlap, legality) is untouched.  Serial and pooled
   kernels both read [normalizer] afresh on every evaluation, so a
   mutation here is visible to an existing [par] handle. *)
let set_inflation t factors =
  Array.iter
    (fun i ->
      let f = factors.(i) in
      if not (Float.is_finite f) || f < 1.0 then
        invalid_arg "Bell.set_inflation: factors must be finite and >= 1";
      t.normalizer.(i) <- t.base_normalizer.(i) *. f)
    t.movable

let reset_inflation t =
  Array.iter (fun i -> t.normalizer.(i) <- t.base_normalizer.(i)) t.movable

let create (d : Design.t) ~grid ~target_density =
  of_soa (Soa.of_design d) ~grid ~target_density

(* The hot kernels below inline their window walks directly — a closure
   callback taking float arguments (the old [iter_window] helper) boxes
   them on every bin visit, which used to dominate the kernels'
   allocation.  For the same reason they call nothing in another module
   per cell or bin: such a call is never inlined under opaque
   compilation, and a float it returns is boxed.  The window bounds are
   [Grid.range_of_interval]'s expressions without its tuple, clamped with
   int comparisons (its polymorphic [max]/[min] are calls per bound),
   and bin centres come from [bin_cx]/[bin_cy], filled by
   [Grid.bin_center_x]/[_y]: the same floats.  lib/refkernels keeps an
   independent closure-based copy of the window walk as the equivalence
   oracle. *)

let[@inline] clamp_bin ~n a =
  let m = if n - 1 <= a then n - 1 else a in
  if 0 >= m then 0 else m

(* first and last bin of the window [lo, hi) along one axis *)
let[@inline] first_bin ~lo ~origin ~step ~n =
  clamp_bin ~n (int_of_float (floor ((lo -. origin) /. step)))

let[@inline] last_bin ~hi ~origin ~step ~n =
  clamp_bin ~n (int_of_float (ceil ((hi -. origin) /. step)) - 1)

(* Scatter one cell's bell contribution into [phi].  The per-column theta
   values are hoisted into [tx_row] once per cell instead of being
   recomputed for every window row — same floats, and the accumulation
   still walks (iy outer, ix inner), so [phi] is bit-identical to the
   closure-based reference in lib/refkernels. *)
let scatter_cell t ~(tx_row : float array) (phi : float array) i x y cv =
  let g = t.grid in
  let rx = t.radius_x.(i) and ry = t.radius_y.(i) in
  let xl = g.Grid.die.Rect.xl and yl = g.Grid.die.Rect.yl in
  let ix0 = first_bin ~lo:(x -. rx) ~origin:xl ~step:g.Grid.bin_w ~n:g.Grid.nx in
  let ix1 = last_bin ~hi:(x +. rx) ~origin:xl ~step:g.Grid.bin_w ~n:g.Grid.nx in
  let iy0 = first_bin ~lo:(y -. ry) ~origin:yl ~step:g.Grid.bin_h ~n:g.Grid.ny in
  let iy1 = last_bin ~hi:(y +. ry) ~origin:yl ~step:g.Grid.bin_h ~n:g.Grid.ny in
  for ix = ix0 to ix1 do
    tx_row.(ix) <- theta ~r:rx (x -. t.bin_cx.(ix))
  done;
  for iy = iy0 to iy1 do
    let ty = theta ~r:ry (y -. t.bin_cy.(iy)) in
    if ty > 0.0 then begin
      let row = iy * g.Grid.nx in
      for ix = ix0 to ix1 do
        let tx = tx_row.(ix) in
        if tx > 0.0 then phi.(row + ix) <- phi.(row + ix) +. (cv *. tx *. ty)
      done
    end
  done

let fill_phi t ~cx ~cy =
  Array.fill t.phi 0 (Array.length t.phi) 0.0;
  for k = 0 to Array.length t.movable - 1 do
    let i = t.movable.(k) in
    scatter_cell t ~tx_row:t.tx_row t.phi i cx.(i) cy.(i) t.normalizer.(i)
  done

let penalty t =
  let acc = ref 0.0 in
  for b = 0 to Array.length t.phi - 1 do
    let e = t.phi.(b) -. t.target.(b) in
    acc := !acc +. (e *. e)
  done;
  !acc

let value t ~cx ~cy =
  fill_phi t ~cx ~cy;
  penalty t

(* Accumulate one cell's density gradient against the (frozen) [phi]
   field.  [tx]/[theta'] per column and [ty]/[theta'] per row are each
   computed once — the old closure recomputed both derivs per bin — and
   the (iy outer, ix inner) accumulation order into gx/gy is unchanged,
   so the sums are bit-identical. *)
let grad_cell t ~(tx_row : float array) ~(dtx_row : float array) i x y cv ~(gx : float array)
    ~(gy : float array) =
  let g = t.grid in
  let rx = t.radius_x.(i) and ry = t.radius_y.(i) in
  let xl = g.Grid.die.Rect.xl and yl = g.Grid.die.Rect.yl in
  let ix0 = first_bin ~lo:(x -. rx) ~origin:xl ~step:g.Grid.bin_w ~n:g.Grid.nx in
  let ix1 = last_bin ~hi:(x +. rx) ~origin:xl ~step:g.Grid.bin_w ~n:g.Grid.nx in
  let iy0 = first_bin ~lo:(y -. ry) ~origin:yl ~step:g.Grid.bin_h ~n:g.Grid.ny in
  let iy1 = last_bin ~hi:(y +. ry) ~origin:yl ~step:g.Grid.bin_h ~n:g.Grid.ny in
  for ix = ix0 to ix1 do
    let dx = x -. t.bin_cx.(ix) in
    tx_row.(ix) <- theta ~r:rx dx;
    dtx_row.(ix) <- theta_deriv ~r:rx dx
  done;
  for iy = iy0 to iy1 do
    let dy = y -. t.bin_cy.(iy) in
    let ty = theta ~r:ry dy in
    if ty > 0.0 then begin
      let dty = theta_deriv ~r:ry dy in
      let row = iy * g.Grid.nx in
      for ix = ix0 to ix1 do
        let tx = tx_row.(ix) in
        if tx > 0.0 then begin
          let b = row + ix in
          let e = 2.0 *. (t.phi.(b) -. t.target.(b)) in
          gx.(i) <- gx.(i) +. (e *. cv *. dtx_row.(ix) *. ty);
          gy.(i) <- gy.(i) +. (e *. cv *. tx *. dty)
        end
      done
    end
  done

let value_grad t ~cx ~cy ~gx ~gy =
  fill_phi t ~cx ~cy;
  for k = 0 to Array.length t.movable - 1 do
    let i = t.movable.(k) in
    grad_cell t ~tx_row:t.tx_row ~dtx_row:t.dtx_row i cx.(i) cy.(i) t.normalizer.(i) ~gx ~gy
  done;
  penalty t

let bin_potential t ~cx ~cy =
  fill_phi t ~cx ~cy;
  Array.copy t.phi

module Pool = Dpp_par.Pool

type par = {
  bell : t;
  chunk_phi : float array array;  (** [Pool.chunk_count] local bin fields *)
  chunk_tx : float array array;
      (** per-chunk theta rows: chunks run on different domains concurrently,
          so they must not share the serial kernels' [t.tx_row] *)
  chunk_dtx : float array array;
}

let par_create bell =
  let nx = bell.grid.Grid.nx in
  {
    bell;
    chunk_phi =
      Array.init Pool.chunk_count (fun _ -> Array.make (Array.length bell.phi) 0.0);
    chunk_tx = Array.init Pool.chunk_count (fun _ -> Array.make nx 0.0);
    chunk_dtx = Array.init Pool.chunk_count (fun _ -> Array.make nx 0.0);
  }

(* Chunked phi accumulation: each of the [Pool.chunk_count] fixed chunks
   of the movable list lands in its own local bin field, and every bin is
   then folded over the chunks in ascending chunk order.  The chunk
   layout never depends on the worker count, so the result is bit-stable
   across pool sizes — though not bit-equal to [fill_phi], whose single
   accumulator sums contributions in movable order. *)
let fill_phi_par p pool ~cx ~cy =
  let t = p.bell in
  let nbins = Array.length t.phi in
  Pool.iter_chunks pool ~n:(Array.length t.movable) (fun ~worker:_ ~chunk ~lo ~hi ->
      let local = p.chunk_phi.(chunk) in
      let tx_row = p.chunk_tx.(chunk) in
      Array.fill local 0 nbins 0.0;
      for k = lo to hi - 1 do
        let i = t.movable.(k) in
        scatter_cell t ~tx_row local i cx.(i) cy.(i) t.normalizer.(i)
      done);
  Pool.iter_chunks pool ~n:nbins (fun ~worker:_ ~chunk:_ ~lo ~hi ->
      for b = lo to hi - 1 do
        let acc = ref 0.0 in
        for c = 0 to Pool.chunk_count - 1 do
          acc := !acc +. p.chunk_phi.(c).(b)
        done;
        t.phi.(b) <- acc.contents
      done)

let par_value p pool ~cx ~cy =
  fill_phi_par p pool ~cx ~cy;
  penalty p.bell

let par_value_grad p pool ~cx ~cy ~gx ~gy =
  fill_phi_par p pool ~cx ~cy;
  let t = p.bell in
  (* Each movable cell owns its gx/gy slots and reads the (now frozen)
     phi field, so the fan-out is write-disjoint and the per-cell window
     walk keeps the serial accumulation order — deterministic under any
     partition. *)
  Pool.iter_chunks pool ~n:(Array.length t.movable) (fun ~worker:_ ~chunk ~lo ~hi ->
      let tx_row = p.chunk_tx.(chunk) in
      let dtx_row = p.chunk_dtx.(chunk) in
      for k = lo to hi - 1 do
        let i = t.movable.(k) in
        grad_cell t ~tx_row ~dtx_row i cx.(i) cy.(i) t.normalizer.(i) ~gx ~gy
      done);
  penalty t
