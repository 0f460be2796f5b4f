(** The placement service: concurrent job execution over a socket.

    One {!t} owns a {!Scheduler} worker-domain pool, a shared
    {!Cache} of extraction results, a bounded table of placed bases
    (what ECO deltas are applied against: each design with the per-net
    Steiner record its flow's metrics stage left), and optionally a
    {e spool} directory of checkpoint records for crash recovery.

    {b Connection model.}  Each client connection is served by one
    handler thread ({!handle_client}); job submissions go to the
    scheduler and return [Accepted] with the job id {e before} any of
    that job's streamed [Event]s (a semaphore gates the job start on the
    acknowledgement write).  Replies to a vanished client are dropped
    silently — a mid-stream disconnect never disturbs the job.

    {b Crash recovery.}  With a spool directory configured, every job
    writes its spec at start and a {!Dpp_core.Checkpoint.Snapshot} after
    each resumable stage boundary (legal, detail, flip); the record is
    deleted on completion.  {!interrupt} (the SIGTERM path) makes every
    in-flight job stop at its next boundary with the spool record left
    behind; a freshly created server over the same spool directory picks
    the records up with {!resume}, restoring the snapshot and running
    only the remaining stage suffix — or re-running from scratch when
    the job had not reached a resumable boundary, which reproduces the
    same bits because the flow is deterministic. *)

exception Interrupted of string
(** Raised inside a job when the server is stopping (or a fault-injection
    trigger fired); carries the last completed stage. *)

type cfg = {
  workers : int;  (** concurrent jobs = scheduler worker domains *)
  queue : int;  (** bounded backlog; beyond it submissions get [Rejected] *)
  spool : string option;  (** checkpoint directory; [None] disables spooling *)
}
(** The extraction cache and the base table hold 16 entries each, and
    each evicts its least recently used entry to admit a 17th; client
    frames are capped at {!Protocol.default_max_frame}. *)

val default_cfg : cfg
(** 2 workers, queue 16, no spool. *)

type t

val create : ?cfg:cfg -> unit -> t
(** Spawns the worker domains; creates the spool directory if needed. *)

(** {1 Serving} *)

val handle_client : t -> Unix.file_descr -> unit
(** Serve one connection until clean EOF, an unrecoverable framing error,
    or a [Shutdown] request.  A malformed {e message} in a well-formed
    frame gets a [Rejected] reply and the connection continues; a broken
    {e frame} gets a [Rejected] reply and the connection is dropped
    (the byte stream cannot be resynchronized).  Does not close [fd].
    Used directly over a socketpair by the tests; {!listen_unix} wraps it
    in an accept loop. *)

val listen_unix : t -> path:string -> unit
(** Bind a Unix-domain socket, accept clients (one handler thread each)
    until {!request_stop} / a client [Shutdown], then unlink the socket.
    Blocks; run the scheduler drain after it returns. *)

val request_stop : t -> unit
(** Stop accepting new connections (closes the listener, so a blocked
    accept wakes up).  In-flight jobs are unaffected. *)

val stopping : t -> bool

(** {1 Jobs without a socket} *)

val submit_request :
  t -> Protocol.request -> reply_fn:(Protocol.response -> unit) -> [ `Queued of int | `Busy ]
(** Submit a [Submit]/[Eco_submit] request directly (the bench harness
    path).  [reply_fn] receives the acknowledgement, streamed events and
    the final verdict, possibly from a worker domain.
    @raise Invalid_argument on [Ping]/[Shutdown]. *)

val drain : t -> unit
(** Block until no job is queued or running. *)

val shutdown : t -> unit
(** {!request_stop}, drain the queue, join every worker domain. *)

val alive_workers : t -> int
(** 0 after {!shutdown} — the no-orphaned-domains assertion. *)

(** {1 Crash recovery} *)

val resume : t -> int list
(** Scan the spool directory and re-submit every record, consuming the
    files; returns the new job ids.  Results land where the original
    spec's [out] pointed (there is no client to stream to). *)

val interrupt : t -> unit
(** The SIGTERM path: every in-flight job stops at its next stage
    boundary (checkpoint left in the spool), and the listener closes. *)

val interrupt_after : t -> string -> unit
(** Fault injection: make every job abort right after the named stage
    completes (and checkpoints, if resumable) — a deterministic stand-in
    for SIGTERM racing a running job. *)

(** {1 Introspection} *)

val jobs_completed : t -> int
val jobs_failed : t -> int

val base_warm : t -> Protocol.job_spec -> bool
(** Whether the base table holds the placement of this spec (an ECO
    against it then skips the cold placement).  Does not refresh the
    entry's recency. *)
