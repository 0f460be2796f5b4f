(** Every named design the tools accept: the Table-1 suite
    ({!Presets.suite}), the XL family ({!Xl.presets}) and the
    congestion-stress preset ({!Channel.name}).  [dpp_place],
    [dpp_gen_cli], [dpp_extract_cli], the [dpp_serve] daemon and
    [Dpp_core.Golden] resolve preset names here, so each accepts the
    same names. *)

val names : string list
(** Table-1 names, then the XL names, then [rt_channel]. *)

val design : ?seed:int -> string -> Dpp_netlist.Design.t option
(** Build the named design, [None] for an unknown name.  Without [seed]
    each preset uses its own seed (a Table-1 spec's [sp_seed], 1 for the
    XL family and [rt_channel]); [seed] replaces it. *)
