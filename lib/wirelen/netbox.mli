(** Incremental per-net bounding boxes — the shared cost substrate of the
    detailed-placement stages.

    Caches, per net, the committed HPWL bounding box plus the multiplicity
    of pins sitting on each of the four extremes.  A candidate move is
    evaluated transactionally: {!move_cell} / {!flip_cell} stage coordinate
    or pin-offset changes (written to the live arrays immediately, boxes
    updated in O(pins of the cell)), {!delta} answers the weighted HPWL
    change, and the caller either {!commit}s or {!rollback}s.  A staged net
    falls back to an O(degree) rescan only when a moved pin was the unique
    extreme of its box; every other update is O(1) per pin.

    Totals and deltas are weighted exactly like {!Hpwl.total}, so after
    any sequence of commits [total t = Hpwl.total pins ~cx ~cy] up to
    float accumulation order. *)

type t

val build : ?pool:Dpp_par.Pool.t -> Pins.t -> cx:float array -> cy:float array -> t
(** Scans every net once into freshly allocated per-net arrays.
    [cx]/[cy] are captured, not copied: the cache owns coordinate updates
    from here on (move through {!move_cell}).  With [pool], the per-net
    scans fan out over the worker domains; the result is bit-identical to
    the serial build at any worker count. *)

val pins : t -> Pins.t
(** The pin view the cache was built over. *)

val total : t -> float
(** Committed weighted HPWL (ignores any open transaction). *)

val net_box : t -> int -> float * float * float * float
(** Committed [(xmin, xmax, ymin, ymax)] of one net (meaningless for
    degree < 2). *)

val move_cell : t -> int -> float -> float -> unit
(** [move_cell t i x y] stages moving cell [i]'s center to [(x, y)]:
    writes the live arrays and updates the staged boxes of its nets.
    Opens a transaction if none is active; staging the same cell again
    within one transaction composes (the journal keeps the original
    position). *)

val flip_cell : t -> int -> unit
(** Stage mirroring cell [i]'s pin x-offsets about its center (the [N] <->
    [FN] orientation flip).  Mutates [pins.off_x] in place; {!rollback}
    restores it. *)

val delta : t -> float
(** Weighted HPWL change of the staged moves relative to the committed
    state; 0 outside a transaction.  Resolves any pending rescans. *)

val commit : t -> unit
(** Accept the staged moves: folds staged boxes into the committed state
    and adds {!delta} to {!total}.  No-op outside a transaction. *)

val rollback : t -> unit
(** Discard the staged moves, restoring coordinates and pin offsets.
    No-op outside a transaction. *)

val eval_moves : t -> k:int -> int array -> float array -> float array -> float
(** [eval_moves t ~k cells xs ys] is the weighted HPWL delta that {e would}
    result from moving the first [k] cells of [cells] to the corresponding
    [(xs.(j), ys.(j))] centers, evaluated purely against the committed
    state: no transaction is opened, no live array is written.  Because it
    is read-only it is safe to call concurrently from many worker domains
    — this is the evaluator behind the detailed-placement stages'
    evaluate-parallel/commit-serial scheme (the serial commit re-checks
    each accepted candidate through {!move_cell}/{!delta} against the
    then-current state).  Must be called outside a transaction; a cell
    must appear at most once in [cells.(0..k-1)]. *)

val eval_flip : t -> int -> float
(** [eval_flip t i] is the weighted HPWL delta of mirroring cell [i]'s pin
    x-offsets, evaluated purely against the committed state (the
    orientation-flip analogue of {!eval_moves}; same concurrency
    contract). *)

val dirty_nets : t -> int array
(** Ids of the nets whose {e committed} box changed in at least one
    {!commit} since the cache was built (or since the last
    {!clear_dirty}), ascending.  Rolled-back transactions never dirty a
    net, and neither does a commit that happens to restore a box to its
    exact previous extent.  This is the delta export the incremental ECO
    flow uses to bound its dirty region: apply an edit list through
    {!move_cell}/{!flip_cell} + {!commit}, then ask which nets moved. *)

val clear_dirty : t -> unit
(** Reset the dirty set (e.g. after consuming {!dirty_nets}). *)

val audit : ?pool:Dpp_par.Pool.t -> ?tol:float -> t -> (int option * string) list
(** Compare every committed per-net box and the committed total against a
    fresh rescan of the live coordinates and pin offsets.  Returns one
    [(Some net, message)] entry per disagreeing box and a [(None, message)]
    entry when the running total disagrees, empty when the cache is
    consistent.  [tol] (default 1e-6) is scaled by the magnitude compared.
    Must be called outside a transaction (an open transaction is itself
    reported as a mismatch).  This is the oracle behind the flow's
    [--check] mode: any write to the coordinate arrays that bypasses
    {!move_cell} shows up here.  With [pool], the fresh per-net rescans
    fan out over the worker domains while the comparison and total keep
    the serial order — same report, bit for bit, at any worker count. *)
