(** Minimal SVG writer — just enough shapes for placement plots, with no
    dependency beyond the standard library.  Coordinates are in user units;
    the viewBox maps them onto the canvas with y flipped so larger y is
    {e up}, matching placement convention. *)

type t

val create : width:float -> height:float -> unit -> t
(** A canvas whose viewBox covers [0..width] x [0..height] user units,
    plus a 10-unit margin. *)

val rect :
  t ->
  x:float ->
  y:float ->
  w:float ->
  h:float ->
  ?fill:string ->
  ?stroke:string ->
  ?stroke_width:float ->
  ?opacity:float ->
  unit ->
  unit

val line : t -> x1:float -> y1:float -> x2:float -> y2:float -> ?stroke:string -> ?stroke_width:float -> unit -> unit

val text : t -> x:float -> y:float -> ?size:float -> ?fill:string -> string -> unit

val to_string : t -> string

val write : t -> path:string -> unit

val color_of_index : int -> string
(** A stable 12-color categorical palette, cycling. *)

val heat_color : float -> string
(** Blue->green->yellow->red ramp for a value in [0, 1] (clamped). *)
