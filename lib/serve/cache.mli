(** Cross-job extraction cache, on a bounded LRU table the server also
    keeps its placed ECO bases in.

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

type ('k, 'v) t
(** A table of at most [capacity] entries that evicts the least recently
    used one to admit another.  Keys are compared structurally. *)

val create : capacity:int -> ('k, 'v) t
(** Thread-safe (shared by all scheduler workers); [capacity >= 1]. *)

val hash_design : Dpp_netlist.Design.t -> int64
(** The structural cache key. *)

type entry = { slicer : Dpp_extract.Slicer.result; metrics : Dpp_extract.Exmetrics.t }
type stats = { hits : int; misses : int; evictions : int; size : int }

val find : ('k, 'v) t -> 'k -> 'v option
(** Lookup, counting a hit/miss and refreshing recency. *)

val add : ('k, 'v) t -> 'k -> 'v -> unit
(** Insert as the most recent entry, evicting the least recent one when
    full; a key already present keeps its value and is refreshed. *)

val mem : ('k, 'v) t -> 'k -> bool
(** Presence, without counting a hit or refreshing recency. *)

val stats : ('k, 'v) t -> stats

val extract_stage : (int64, entry) t -> Dpp_core.Flow.stage
(** A drop-in replacement for {!Dpp_core.Flow.extract_stage} that
    consults the cache first and populates it on a miss.  The flow
    always extracts with {!Dpp_extract.Slicer.default_config}, so the
    design alone determines the result. *)
