(** A small spawn-once domain-pool executor for the hot placement kernels.

    The pool owns [nworkers - 1] helper domains (the caller's domain is
    worker 0); helpers are spawned lazily on the first parallel {!run} and
    parked on a condition variable between jobs, so creating a pool is
    free and a pool with [nworkers = 1] never spawns anything — the serial
    path stays exactly the serial path.

    {b Determinism.}  Work is distributed by {e static chunking} over a
    {e fixed} number of chunks ({!chunk_count}) whose boundaries depend
    only on the item count, never on the worker count.  A kernel that
    accumulates into per-chunk buffers and reduces them in ascending chunk
    index order therefore produces bit-identical results at every
    [nworkers] — which worker happened to compute a chunk cannot matter,
    because IEEE arithmetic is deterministic given the same operands in
    the same order.  Kernels whose writes are disjoint per item (one slot
    per net, pin or cell) are bit-deterministic under any partition and
    simply use {!iter_chunks} for the fan-out. *)

type t

val create : nworkers:int -> t
(** [create ~nworkers] builds a pool of [nworkers] workers, clamped to
    [1 .. {!chunk_count}]: a worker past the last chunk would never run.
    No domain is spawned until the first {!run} with [nworkers > 1]. *)

val nworkers : t -> int

val serial : t
(** A shared single-worker pool: every [run] executes inline on the
    calling domain, in chunk order.  Safe to use from any domain and
    never needs {!shutdown}. *)

val run : t -> (int -> unit) -> unit
(** [run t f] executes [f w] once per worker [w] in [0 .. nworkers - 1],
    concurrently; [f 0] runs on the calling domain.  Blocks until every
    worker returns.  If any worker raises, one of the raised exceptions is
    re-raised on the caller after all workers have finished.  Not
    reentrant: a job must not call {!run} on its own pool. *)

val chunk_count : int
(** The fixed static chunk count (16).  Parallelism is capped by it, and
    every chunk-indexed reduction has exactly this many partials. *)

val chunk_bounds : n:int -> int -> int * int
(** [chunk_bounds ~n c] is the half-open item range [(lo, hi)] of chunk
    [c] over [n] items: boundaries depend only on [n]. *)

val effective_cores : int
(** [Domain.recommended_domain_count ()], sampled once at startup. *)

val auto_serial : t -> n:int -> bool
(** [auto_serial t ~n] is true when {!iter_chunks} over [n] items would
    run inline on the caller instead of fanning out: the pool has one
    worker, the machine has fewer than two effective cores, or [n] is
    below the minimum worth waking helpers for (2048 items).  Exposed so
    benchmarks can report honestly whether a sweep level actually ran in
    parallel. *)

val iter_chunks : t -> n:int -> (worker:int -> chunk:int -> lo:int -> hi:int -> unit) -> unit
(** Run the callback over all {!chunk_count} chunks of [n] items, chunks
    assigned to workers round-robin.  Empty chunks are still visited (so
    per-chunk buffers can be cleared).  [worker] identifies the executing
    worker for scratch-buffer selection only — values must not depend on
    it.  When {!auto_serial} holds, every chunk runs inline on the
    caller as worker 0 in ascending chunk order, which yields the same
    bits as the fanned-out path (chunk boundaries and merge order are
    unchanged). *)

val shutdown : t -> unit
(** Park and join the helper domains, if any were spawned.  The pool
    remains usable (helpers respawn on the next parallel {!run}).
    Idempotent. *)

val with_pool : nworkers:int -> (t -> 'a) -> 'a
(** [with_pool ~nworkers f] runs [f] over a fresh pool and guarantees
    {!shutdown}, even on exceptions. *)
