module Soa = Dpp_netlist.Soa
module I32 = Dpp_util.Compact.I32
module Pool = Dpp_par.Pool

type t = {
  pins : Pins.t;
  cx : float array;
  cy : float array;
  pin_net : I32.t;
  (* net -> pins CSR, aliased from the flat core: allocation-free,
     cache-friendly rescans *)
  net_off : I32.t;
  net_pin : I32.t;
  weight : float array;
  degree : int array;
  (* committed per-net boxes with extreme multiplicities *)
  xmin : float array;
  xmax : float array;
  ymin : float array;
  ymax : float array;
  nxmin : int array;
  nxmax : int array;
  nymin : int array;
  nymax : int array;
  (* staged copies, valid for nets with stamp = txn *)
  sxmin : float array;
  sxmax : float array;
  symin : float array;
  symax : float array;
  snxmin : int array;
  snxmax : int array;
  snymin : int array;
  snymax : int array;
  stamp : int array;
  cell_stamp : int array;
  mutable txn : int;
  (* transaction journals: preallocated stacks, no per-move allocation *)
  mutable touched : int array;
  mutable n_touched : int;
  mutable moved_cell : int array;
  mutable moved_x : float array;
  mutable moved_y : float array;
  mutable n_moved : int;
  mutable mirrored : int array;
  mutable n_mirrored : int;
  mutable total : float;
  mutable active : bool;
  (* dirty-set export: nets whose committed box changed since the last
     [clear_dirty] (or since build), in first-dirtied order *)
  dirty_mark : bool array;
  mutable dirty : int array;
  mutable n_dirty : int;
}

(* Nets up to this degree skip the multiplicity bookkeeping entirely: any
   staged change just marks them rescan-dirty, and the O(degree) rescan at
   [delta] time costs about as much as one pin's counter cascade would. *)
let small_degree = 8

(* Recompute net [n]'s box and extreme multiplicities from the live
   coordinates into the given arrays.  Only called for degree >= 2. *)
let scan_into t n ~bxmin ~bxmax ~bymin ~bymax ~cxmin ~cxmax ~cymin ~cymax =
  let pin_cell = t.pins.Pins.pin_cell in
  let off_x = t.pins.Pins.off_x and off_y = t.pins.Pins.off_y in
  let xmin = ref infinity and xmax = ref neg_infinity in
  let ymin = ref infinity and ymax = ref neg_infinity in
  let nxmin = ref 0 and nxmax = ref 0 and nymin = ref 0 and nymax = ref 0 in
  for i = Int32.to_int (I32.uget t.net_off n) to Int32.to_int (I32.uget t.net_off (n + 1)) - 1 do
    let p = Int32.to_int (I32.uget t.net_pin i) in
    let c = Int32.to_int (I32.uget pin_cell p) in
    let x = t.cx.(c) +. off_x.(p) and y = t.cy.(c) +. off_y.(p) in
    if x < !xmin then begin xmin := x; nxmin := 1 end
    else if x = !xmin then incr nxmin;
    if x > !xmax then begin xmax := x; nxmax := 1 end
    else if x = !xmax then incr nxmax;
    if y < !ymin then begin ymin := y; nymin := 1 end
    else if y = !ymin then incr nymin;
    if y > !ymax then begin ymax := y; nymax := 1 end
    else if y = !ymax then incr nymax
  done;
  bxmin.(n) <- !xmin;
  bxmax.(n) <- !xmax;
  bymin.(n) <- !ymin;
  bymax.(n) <- !ymax;
  cxmin.(n) <- !nxmin;
  cxmax.(n) <- !nxmax;
  cymin.(n) <- !nymin;
  cymax.(n) <- !nymax

let clear_dirty t =
  for k = 0 to t.n_dirty - 1 do
    t.dirty_mark.(t.dirty.(k)) <- false
  done;
  t.n_dirty <- 0

let build ?pool (pins : Pins.t) ~cx ~cy =
  let s = pins.Pins.soa in
  let nn = Soa.num_nets s in
  let t =
    {
      pins;
      cx;
      cy;
      pin_net = s.Soa.pin_net;
      net_off = s.Soa.net_pin_off;
      net_pin = s.Soa.net_pin;
      weight = s.Soa.net_weight;
      degree = Array.init nn (fun n -> Soa.net_degree s n);
      xmin = Array.make nn 0.0;
      xmax = Array.make nn 0.0;
      ymin = Array.make nn 0.0;
      ymax = Array.make nn 0.0;
      nxmin = Array.make nn 0;
      nxmax = Array.make nn 0;
      nymin = Array.make nn 0;
      nymax = Array.make nn 0;
      sxmin = Array.make nn 0.0;
      sxmax = Array.make nn 0.0;
      symin = Array.make nn 0.0;
      symax = Array.make nn 0.0;
      snxmin = Array.make nn 0;
      snxmax = Array.make nn 0;
      snymin = Array.make nn 0;
      snymax = Array.make nn 0;
      stamp = Array.make nn (-1);
      cell_stamp = Array.make (Soa.num_cells s) (-1);
      txn = 0;
      touched = Array.make 64 0;
      n_touched = 0;
      moved_cell = Array.make 16 0;
      moved_x = Array.make 16 0.0;
      moved_y = Array.make 16 0.0;
      n_moved = 0;
      mirrored = Array.make 16 0;
      n_mirrored = 0;
      total = 0.0;
      active = false;
      dirty_mark = Array.make nn false;
      dirty = Array.make 64 0;
      n_dirty = 0;
    }
  in
  (* Per-net scans write disjoint slots, so they can fan out over a pool;
     the total is then folded serially in ascending net order, which makes
     the pooled build bit-identical to the serial one. *)
  let scan_range lo hi =
    for n = lo to hi - 1 do
      if t.degree.(n) >= 2 then
        scan_into t n ~bxmin:t.xmin ~bxmax:t.xmax ~bymin:t.ymin ~bymax:t.ymax ~cxmin:t.nxmin
          ~cxmax:t.nxmax ~cymin:t.nymin ~cymax:t.nymax
    done
  in
  (match pool with
  | None -> scan_range 0 nn
  | Some pool ->
    Pool.iter_chunks pool ~n:nn (fun ~worker:_ ~chunk:_ ~lo ~hi -> scan_range lo hi));
  for n = 0 to nn - 1 do
    if t.degree.(n) >= 2 then
      t.total <-
        t.total
        +. (t.weight.(n) *. (t.xmax.(n) -. t.xmin.(n) +. t.ymax.(n) -. t.ymin.(n)))
  done;
  t

let pins t = t.pins
let total t = t.total
let net_box t n = t.xmin.(n), t.xmax.(n), t.ymin.(n), t.ymax.(n)

let grow_int a = let b = Array.make (2 * Array.length a) 0 in Array.blit a 0 b 0 (Array.length a); b
let grow_float a = let b = Array.make (2 * Array.length a) 0.0 in Array.blit a 0 b 0 (Array.length a); b

(* Small-net variant of [touch]: no staged copy, no counters — small nets
   are unconditionally rescanned by [resolve], so just record the touch. *)
let touch_dirty t n =
  if t.stamp.(n) <> t.txn then begin
    t.stamp.(n) <- t.txn;
    if t.n_touched = Array.length t.touched then t.touched <- grow_int t.touched;
    t.touched.(t.n_touched) <- n;
    t.n_touched <- t.n_touched + 1
  end

let touch t n =
  if t.stamp.(n) <> t.txn then begin
    t.stamp.(n) <- t.txn;
    if t.n_touched = Array.length t.touched then t.touched <- grow_int t.touched;
    t.touched.(t.n_touched) <- n;
    t.n_touched <- t.n_touched + 1;
    t.sxmin.(n) <- t.xmin.(n);
    t.sxmax.(n) <- t.xmax.(n);
    t.symin.(n) <- t.ymin.(n);
    t.symax.(n) <- t.ymax.(n);
    t.snxmin.(n) <- t.nxmin.(n);
    t.snxmax.(n) <- t.nxmax.(n);
    t.snymin.(n) <- t.nymin.(n);
    t.snymax.(n) <- t.nymax.(n)
  end

(* Extreme-multiplicity bookkeeping.  Values are always computed as
   [coordinate +. offset], so a pin sitting at an extreme compares equal
   bit-for-bit.  When a counter hits 0 the bound is stale (strict): the
   true extreme moved away and only a full rescan can recover it — that
   rescan is deferred to [delta]/[commit], and only runs for nets where a
   moved pin was the unique extreme. *)
let remove_x t n v =
  if v = t.sxmin.(n) then t.snxmin.(n) <- t.snxmin.(n) - 1;
  if v = t.sxmax.(n) then t.snxmax.(n) <- t.snxmax.(n) - 1

let remove_y t n v =
  if v = t.symin.(n) then t.snymin.(n) <- t.snymin.(n) - 1;
  if v = t.symax.(n) then t.snymax.(n) <- t.snymax.(n) - 1

let add_x t n v =
  if v < t.sxmin.(n) then begin
    t.sxmin.(n) <- v;
    t.snxmin.(n) <- 1
  end
  else if v = t.sxmin.(n) then t.snxmin.(n) <- t.snxmin.(n) + 1;
  if v > t.sxmax.(n) then begin
    t.sxmax.(n) <- v;
    t.snxmax.(n) <- 1
  end
  else if v = t.sxmax.(n) then t.snxmax.(n) <- t.snxmax.(n) + 1

let add_y t n v =
  if v < t.symin.(n) then begin
    t.symin.(n) <- v;
    t.snymin.(n) <- 1
  end
  else if v = t.symin.(n) then t.snymin.(n) <- t.snymin.(n) + 1;
  if v > t.symax.(n) then begin
    t.symax.(n) <- v;
    t.snymax.(n) <- 1
  end
  else if v = t.symax.(n) then t.snymax.(n) <- t.snymax.(n) + 1

let move_cell t i nx ny =
  t.active <- true;
  if t.cell_stamp.(i) <> t.txn then begin
    t.cell_stamp.(i) <- t.txn;
    if t.n_moved = Array.length t.moved_cell then begin
      t.moved_cell <- grow_int t.moved_cell;
      t.moved_x <- grow_float t.moved_x;
      t.moved_y <- grow_float t.moved_y
    end;
    t.moved_cell.(t.n_moved) <- i;
    t.moved_x.(t.n_moved) <- t.cx.(i);
    t.moved_y.(t.n_moved) <- t.cy.(i);
    t.n_moved <- t.n_moved + 1
  end;
  let ox = t.cx.(i) and oy = t.cy.(i) in
  let off_x = t.pins.Pins.off_x and off_y = t.pins.Pins.off_y in
  let s = t.pins.Pins.soa in
  for
    k = Int32.to_int (I32.uget s.Soa.cell_pin_off i)
    to Int32.to_int (I32.uget s.Soa.cell_pin_off (i + 1)) - 1
  do
    let p = Int32.to_int (I32.uget s.Soa.cell_pin k) in
    let n = Int32.to_int (I32.uget t.pin_net p) in
    if n >= 0 then begin
      let deg = t.degree.(n) in
      if deg >= 2 then
        if deg <= small_degree then touch_dirty t n
        else begin
          touch t n;
          remove_x t n (ox +. off_x.(p));
          remove_y t n (oy +. off_y.(p));
          add_x t n (nx +. off_x.(p));
          add_y t n (ny +. off_y.(p))
        end
    end
  done;
  t.cx.(i) <- nx;
  t.cy.(i) <- ny

let flip_cell t i =
  t.active <- true;
  if t.n_mirrored = Array.length t.mirrored then t.mirrored <- grow_int t.mirrored;
  t.mirrored.(t.n_mirrored) <- i;
  t.n_mirrored <- t.n_mirrored + 1;
  let x = t.cx.(i) in
  let off_x = t.pins.Pins.off_x in
  let s = t.pins.Pins.soa in
  for
    k = Int32.to_int (I32.uget s.Soa.cell_pin_off i)
    to Int32.to_int (I32.uget s.Soa.cell_pin_off (i + 1)) - 1
  do
    let p = Int32.to_int (I32.uget s.Soa.cell_pin k) in
    let off = off_x.(p) in
    let n = Int32.to_int (I32.uget t.pin_net p) in
    if n >= 0 then begin
      let deg = t.degree.(n) in
      if deg >= 2 then
        if deg <= small_degree then touch_dirty t n
        else begin
          touch t n;
          remove_x t n (x +. off);
          add_x t n (x -. off)
        end
    end;
    off_x.(p) <- -.off
  done

(* Counter-free staged box rescan for small nets (their committed and
   staged multiplicity slots are never read). *)
let scan_box t n =
  let pin_cell = t.pins.Pins.pin_cell in
  let off_x = t.pins.Pins.off_x and off_y = t.pins.Pins.off_y in
  let xmin = ref infinity and xmax = ref neg_infinity in
  let ymin = ref infinity and ymax = ref neg_infinity in
  for i = Int32.to_int (I32.uget t.net_off n) to Int32.to_int (I32.uget t.net_off (n + 1)) - 1 do
    let p = Int32.to_int (I32.uget t.net_pin i) in
    let c = Int32.to_int (I32.uget pin_cell p) in
    let x = t.cx.(c) +. off_x.(p) and y = t.cy.(c) +. off_y.(p) in
    if x < !xmin then xmin := x;
    if x > !xmax then xmax := x;
    if y < !ymin then ymin := y;
    if y > !ymax then ymax := y
  done;
  t.sxmin.(n) <- !xmin;
  t.sxmax.(n) <- !xmax;
  t.symin.(n) <- !ymin;
  t.symax.(n) <- !ymax

let resolve t n =
  if t.degree.(n) <= small_degree then scan_box t n
  else if t.snxmin.(n) = 0 || t.snxmax.(n) = 0 || t.snymin.(n) = 0 || t.snymax.(n) = 0 then
    scan_into t n ~bxmin:t.sxmin ~bxmax:t.sxmax ~bymin:t.symin ~bymax:t.symax ~cxmin:t.snxmin
      ~cxmax:t.snxmax ~cymin:t.snymin ~cymax:t.snymax

let delta t =
  let acc = ref 0.0 in
  for k = 0 to t.n_touched - 1 do
    let n = t.touched.(k) in
    resolve t n;
    let staged = t.sxmax.(n) -. t.sxmin.(n) +. t.symax.(n) -. t.symin.(n) in
    let committed = t.xmax.(n) -. t.xmin.(n) +. t.ymax.(n) -. t.ymin.(n) in
    acc := !acc +. (t.weight.(n) *. (staged -. committed))
  done;
  !acc

let finish t =
  t.txn <- t.txn + 1;
  t.n_touched <- 0;
  t.n_moved <- 0;
  t.n_mirrored <- 0;
  t.active <- false

let mark_dirty t n =
  if not t.dirty_mark.(n) then begin
    t.dirty_mark.(n) <- true;
    if t.n_dirty = Array.length t.dirty then t.dirty <- grow_int t.dirty;
    t.dirty.(t.n_dirty) <- n;
    t.n_dirty <- t.n_dirty + 1
  end

let dirty_nets t =
  let a = Array.sub t.dirty 0 t.n_dirty in
  Array.sort compare a;
  a

let commit t =
  if t.active then begin
    t.total <- t.total +. delta t;
    for k = 0 to t.n_touched - 1 do
      let n = t.touched.(k) in
      if
        t.xmin.(n) <> t.sxmin.(n)
        || t.xmax.(n) <> t.sxmax.(n)
        || t.ymin.(n) <> t.symin.(n)
        || t.ymax.(n) <> t.symax.(n)
      then mark_dirty t n;
      t.xmin.(n) <- t.sxmin.(n);
      t.xmax.(n) <- t.sxmax.(n);
      t.ymin.(n) <- t.symin.(n);
      t.ymax.(n) <- t.symax.(n);
      t.nxmin.(n) <- t.snxmin.(n);
      t.nxmax.(n) <- t.snxmax.(n);
      t.nymin.(n) <- t.snymin.(n);
      t.nymax.(n) <- t.snymax.(n)
    done;
    finish t
  end

let audit ?pool ?(tol = 1e-6) t =
  if t.active then [ None, "audit called inside an open transaction" ]
  else begin
    let pin_cell = t.pins.Pins.pin_cell in
    let off_x = t.pins.Pins.off_x and off_y = t.pins.Pins.off_y in
    let nn = Soa.num_nets t.pins.Pins.soa in
    (* Fresh boxes land in per-net slots (parallel-safe); the compare /
       total pass below then runs serially in the legacy [downto] order,
       so the pooled audit reports exactly what the serial one does. *)
    let fxmin = Array.make (max 1 nn) 0.0 and fxmax = Array.make (max 1 nn) 0.0 in
    let fymin = Array.make (max 1 nn) 0.0 and fymax = Array.make (max 1 nn) 0.0 in
    let rescan_range lo hi =
      for n = lo to hi - 1 do
        if t.degree.(n) >= 2 then begin
          let xmin = ref infinity and xmax = ref neg_infinity in
          let ymin = ref infinity and ymax = ref neg_infinity in
          for
            i = Int32.to_int (I32.uget t.net_off n)
            to Int32.to_int (I32.uget t.net_off (n + 1)) - 1
          do
            let p = Int32.to_int (I32.uget t.net_pin i) in
            let c = Int32.to_int (I32.uget pin_cell p) in
            let x = t.cx.(c) +. off_x.(p) and y = t.cy.(c) +. off_y.(p) in
            if x < !xmin then xmin := x;
            if x > !xmax then xmax := x;
            if y < !ymin then ymin := y;
            if y > !ymax then ymax := y
          done;
          fxmin.(n) <- !xmin;
          fxmax.(n) <- !xmax;
          fymin.(n) <- !ymin;
          fymax.(n) <- !ymax
        end
      done
    in
    (match pool with
    | None -> rescan_range 0 nn
    | Some pool ->
      Pool.iter_chunks pool ~n:nn (fun ~worker:_ ~chunk:_ ~lo ~hi -> rescan_range lo hi));
    let mismatches = ref [] in
    let fresh_total = ref 0.0 in
    for n = nn - 1 downto 0 do
      if t.degree.(n) >= 2 then begin
        let span = fxmax.(n) -. fxmin.(n) +. fymax.(n) -. fymin.(n) in
        fresh_total := !fresh_total +. (t.weight.(n) *. span);
        let slack = tol *. (1.0 +. abs_float span) in
        let bad got want tag =
          if abs_float (got -. want) > slack then
            mismatches :=
              ( Some n,
                Printf.sprintf "cached %s %.9g but a fresh rescan finds %.9g" tag got want )
              :: !mismatches
        in
        bad t.xmin.(n) fxmin.(n) "xmin";
        bad t.xmax.(n) fxmax.(n) "xmax";
        bad t.ymin.(n) fymin.(n) "ymin";
        bad t.ymax.(n) fymax.(n) "ymax"
      end
    done;
    let slack = tol *. (1.0 +. abs_float !fresh_total) in
    if abs_float (t.total -. !fresh_total) > slack then
      mismatches :=
        ( None,
          Printf.sprintf "cached total %.9g but a fresh rescan finds %.9g" t.total
            !fresh_total )
        :: !mismatches;
    !mismatches
  end

(* ----- pure candidate evaluation -----

   The evaluate-parallel/commit-serial contract of the detailed-placement
   stages needs a delta oracle that many worker domains can call at once
   against the committed state.  These functions never touch [t]'s staged
   slots, journals, or live arrays: they rescan the candidate's nets with
   the hypothetical coordinates substituted on the fly and compare against
   the committed boxes.  Only valid outside a transaction. *)

let eval_moves t ~k cells xs ys =
  let s = t.pins.Pins.soa in
  let pin_cell = t.pins.Pins.pin_cell in
  let off_x = t.pins.Pins.off_x and off_y = t.pins.Pins.off_y in
  (* distinct incident nets of the k moved cells; k is tiny (<= 3), so a
     list with linear membership is cheaper than any hashing *)
  let nets = ref [] in
  for j = 0 to k - 1 do
    let c = cells.(j) in
    for
      q = Int32.to_int (I32.uget s.Soa.cell_pin_off c)
      to Int32.to_int (I32.uget s.Soa.cell_pin_off (c + 1)) - 1
    do
      let n = Int32.to_int (I32.uget t.pin_net (Int32.to_int (I32.uget s.Soa.cell_pin q))) in
      if n >= 0 && t.degree.(n) >= 2 && not (List.mem n !nets) then nets := n :: !nets
    done
  done;
  let moved_index c =
    let j = ref (-1) in
    for q = 0 to k - 1 do
      if cells.(q) = c then j := q
    done;
    !j
  in
  let acc = ref 0.0 in
  List.iter
    (fun n ->
      let xmin = ref infinity and xmax = ref neg_infinity in
      let ymin = ref infinity and ymax = ref neg_infinity in
      for
        i = Int32.to_int (I32.uget t.net_off n)
        to Int32.to_int (I32.uget t.net_off (n + 1)) - 1
      do
        let p = Int32.to_int (I32.uget t.net_pin i) in
        let c = Int32.to_int (I32.uget pin_cell p) in
        let j = moved_index c in
        let bx = if j >= 0 then xs.(j) else t.cx.(c) in
        let by = if j >= 0 then ys.(j) else t.cy.(c) in
        let x = bx +. off_x.(p) and y = by +. off_y.(p) in
        if x < !xmin then xmin := x;
        if x > !xmax then xmax := x;
        if y < !ymin then ymin := y;
        if y > !ymax then ymax := y
      done;
      let staged = !xmax -. !xmin +. !ymax -. !ymin in
      let committed = t.xmax.(n) -. t.xmin.(n) +. t.ymax.(n) -. t.ymin.(n) in
      acc := !acc +. (t.weight.(n) *. (staged -. committed)))
    !nets;
  !acc

let eval_flip t i =
  let s = t.pins.Pins.soa in
  let pin_cell = t.pins.Pins.pin_cell in
  let off_x = t.pins.Pins.off_x in
  let nets = ref [] in
  for
    q = Int32.to_int (I32.uget s.Soa.cell_pin_off i)
    to Int32.to_int (I32.uget s.Soa.cell_pin_off (i + 1)) - 1
  do
    let n = Int32.to_int (I32.uget t.pin_net (Int32.to_int (I32.uget s.Soa.cell_pin q))) in
    if n >= 0 && t.degree.(n) >= 2 && not (List.mem n !nets) then nets := n :: !nets
  done;
  let acc = ref 0.0 in
  List.iter
    (fun n ->
      let xmin = ref infinity and xmax = ref neg_infinity in
      for
        q = Int32.to_int (I32.uget t.net_off n)
        to Int32.to_int (I32.uget t.net_off (n + 1)) - 1
      do
        let p = Int32.to_int (I32.uget t.net_pin q) in
        let c = Int32.to_int (I32.uget pin_cell p) in
        let off = if c = i then -.off_x.(p) else off_x.(p) in
        let x = t.cx.(c) +. off in
        if x < !xmin then xmin := x;
        if x > !xmax then xmax := x
      done;
      acc :=
        !acc +. (t.weight.(n) *. (!xmax -. !xmin -. (t.xmax.(n) -. t.xmin.(n)))))
    !nets;
  !acc

let rollback t =
  if t.active then begin
    for k = 0 to t.n_moved - 1 do
      let i = t.moved_cell.(k) in
      t.cx.(i) <- t.moved_x.(k);
      t.cy.(i) <- t.moved_y.(k)
    done;
    let s = t.pins.Pins.soa in
    for k = 0 to t.n_mirrored - 1 do
      let i = t.mirrored.(k) in
      for
        q = Int32.to_int (I32.uget s.Soa.cell_pin_off i)
        to Int32.to_int (I32.uget s.Soa.cell_pin_off (i + 1)) - 1
      do
        let p = Int32.to_int (I32.uget s.Soa.cell_pin q) in
        t.pins.Pins.off_x.(p) <- -.t.pins.Pins.off_x.(p)
      done
    done;
    finish t
  end
