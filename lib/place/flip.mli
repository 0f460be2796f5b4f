(** Cell orientation optimization: mirror a standard cell about its
    vertical axis ([N] <-> [FN]) when that shortens the HPWL of its
    incident nets.  Flipping keeps the cell's footprint and center, so it
    can never break legality, and it preserves datapath-array geometry —
    every cell is a candidate, group members included.

    A cheap, classical post-pass: typical gains are a fraction of a
    percent of HPWL, concentrated on asymmetric-pin cells.  Candidates
    are evaluated through {!Dpp_wirelen.Netbox} transactions; accepted
    flips leave the shared pin view's offsets mirrored in place, so the
    caller never rebuilds it. *)

type stats = {
  flips : int;
  gain : float;  (** weighted HPWL improvement *)
  flipped : int list;  (** ids of the cells that were flipped *)
}

val run :
  Dpp_netlist.Design.t ->
  ?pool:Dpp_par.Pool.t ->
  ?skip:(int -> bool) ->
  netbox:Dpp_wirelen.Netbox.t ->
  unit ->
  stats
(** Greedy single pass over all movable cells at the placement [netbox]
    is live over ([skip], used by incremental ECO re-placement, exempts
    cells — their orientations must stay bit-identical to the base
    placement); mutates [design.orient] (and the pin view's x-offsets)
    for accepted flips.  Multi-row macros (RAMs) are skipped — their pin
    symmetry assumptions do not hold.  [pool] (default
    {!Dpp_par.Pool.serial}) fans the candidate evaluation out over
    worker domains (read-only {!Dpp_wirelen.Netbox.eval_flip}); commits
    stay serial in ascending id order, so the flipped set is
    bit-identical at every worker count. *)
