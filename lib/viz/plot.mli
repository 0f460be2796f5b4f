(** Placement plots: the die, rows, cells (datapath groups colored, glue
    gray, fixed cells dark), and optionally a RUDY congestion heat
    underlay.  One call produces a self-contained SVG file — the quickest
    way to see what the flows actually did to a design. *)

val placement :
  ?groups:Dpp_netlist.Groups.t list ->
  ?congestion:Dpp_congest.Rudy.t ->
  ?title:string ->
  Dpp_netlist.Design.t ->
  path:string ->
  unit
(** Renders the design at its current positions, two SVG units per
    database unit.  [groups] defaults to the design's own annotations.
    With [congestion], bins with demand ratio > 0.5 are shaded under the
    cells. *)

val compare_placements :
  left:Dpp_netlist.Design.t ->
  right:Dpp_netlist.Design.t ->
  ?left_title:string ->
  ?right_title:string ->
  path:string ->
  unit ->
  unit
(** Two placements of the same die side by side (baseline vs
    structure-aware, before vs after, ...). *)
