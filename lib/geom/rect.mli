(** Axis-aligned rectangles: cell shapes, group bounding boxes, the die. *)

type t = { xl : float; yl : float; xh : float; yh : float }

val make : xl:float -> yl:float -> xh:float -> yh:float -> t
(** Normalises so that [xl <= xh] and [yl <= yh]. *)

val of_center : cx:float -> cy:float -> w:float -> h:float -> t
val width : t -> float
val height : t -> float
val area : t -> float
val center_x : t -> float
val center_y : t -> float
val center : t -> Point.t
val contains_point : t -> Point.t -> bool
val contains_rect : t -> t -> bool
(** [contains_rect outer inner]. *)

val overlaps : t -> t -> bool
(** Positive-area overlap. *)

val intersection : t -> t -> t option
val overlap_area : t -> t -> float
val hull : t -> t -> t
val expand : t -> float -> t
(** Grow (or shrink, if negative) each side by a margin. *)

val translate : t -> dx:float -> dy:float -> t
val clamp_inside : outer:t -> t -> t
(** Slide a rectangle the minimum distance so it lies inside [outer]; if it
    is larger than [outer] along an axis it is left-aligned on that axis. *)

val equal : t -> t -> bool
val pp : Format.formatter -> t -> unit
