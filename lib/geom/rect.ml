type t = { xl : float; yl : float; xh : float; yh : float }

let make ~xl ~yl ~xh ~yh =
  let xl, xh = if xl <= xh then xl, xh else xh, xl in
  let yl, yh = if yl <= yh then yl, yh else yh, yl in
  { xl; yl; xh; yh }

let of_center ~cx ~cy ~w ~h =
  make ~xl:(cx -. (w /. 2.0)) ~yl:(cy -. (h /. 2.0)) ~xh:(cx +. (w /. 2.0)) ~yh:(cy +. (h /. 2.0))

let width t = t.xh -. t.xl
let height t = t.yh -. t.yl
let area t = width t *. height t
let center_x t = (t.xl +. t.xh) /. 2.0
let center_y t = (t.yl +. t.yh) /. 2.0
let center t = Point.make (center_x t) (center_y t)

let contains_point t (p : Point.t) = t.xl <= p.x && p.x <= t.xh && t.yl <= p.y && p.y <= t.yh

let contains_rect outer inner =
  outer.xl <= inner.xl && inner.xh <= outer.xh && outer.yl <= inner.yl && inner.yh <= outer.yh

let overlaps a b = a.xl < b.xh && b.xl < a.xh && a.yl < b.yh && b.yl < a.yh

let intersection a b =
  let xl = max a.xl b.xl and xh = min a.xh b.xh in
  let yl = max a.yl b.yl and yh = min a.yh b.yh in
  if xl <= xh && yl <= yh then Some { xl; yl; xh; yh } else None

let overlap_area a b =
  let w = min a.xh b.xh -. max a.xl b.xl in
  let h = min a.yh b.yh -. max a.yl b.yl in
  if w > 0.0 && h > 0.0 then w *. h else 0.0

let hull a b = { xl = min a.xl b.xl; yl = min a.yl b.yl; xh = max a.xh b.xh; yh = max a.yh b.yh }

let expand t m = make ~xl:(t.xl -. m) ~yl:(t.yl -. m) ~xh:(t.xh +. m) ~yh:(t.yh +. m)

let translate t ~dx ~dy = { xl = t.xl +. dx; yl = t.yl +. dy; xh = t.xh +. dx; yh = t.yh +. dy }

let clamp_axis ~olo ~ohi lo hi =
  (* Returns the shift to apply along one axis. *)
  if hi -. lo > ohi -. olo then olo -. lo
  else if lo < olo then olo -. lo
  else if hi > ohi then ohi -. hi
  else 0.0

let clamp_inside ~outer t =
  let dx = clamp_axis ~olo:outer.xl ~ohi:outer.xh t.xl t.xh in
  let dy = clamp_axis ~olo:outer.yl ~ohi:outer.yh t.yl t.yh in
  translate t ~dx ~dy


let equal a b = a.xl = b.xl && a.yl = b.yl && a.xh = b.xh && a.yh = b.yh

let pp ppf t = Format.fprintf ppf "[%g, %g]x[%g, %g]" t.xl t.xh t.yl t.yh
