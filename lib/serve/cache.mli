(** Cross-job extraction cache.

    Datapath extraction is a pure function of the netlist {e structure}
    (WL colour refinement never looks at coordinates), so its result can
    be reused across submissions of the same netlist — the common case
    for a serving workload, where clients iterate on placement settings
    or submit ECO deltas against a base they placed moments ago.

    The key is a 64-bit FNV-1a hash over the full incidence structure:
    die and row geometry, per-cell (master, width, height, kind) in id
    order, and per-net (weight, pin list with owning cell, direction and
    offsets).  Cell {e positions} are deliberately excluded.  Two designs
    with equal keys have identical cell ids, so cached groups (id sets)
    apply directly.  Entries are LRU-evicted beyond [capacity]. *)

type t

val create : capacity:int -> t
(** Thread-safe (shared by all scheduler workers); [capacity >= 1]. *)

val hash_design : Dpp_netlist.Design.t -> int64
(** The structural cache key. *)

type entry = { slicer : Dpp_extract.Slicer.result; metrics : Dpp_extract.Exmetrics.t }
type stats = { hits : int; misses : int; evictions : int; size : int }

val find : t -> int64 -> entry option
(** Lookup, counting a hit/miss and refreshing recency. *)

val add : t -> int64 -> entry -> unit
val stats : t -> stats

val extract_stage : t -> Dpp_core.Flow.stage
(** A drop-in replacement for {!Dpp_core.Flow.extract_stage} that
    consults the cache first and populates it on a miss.  The flow
    always extracts with {!Dpp_extract.Slicer.default_config}, so the
    design alone determines the result. *)
