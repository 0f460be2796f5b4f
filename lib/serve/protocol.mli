(** The dpp_serve wire protocol: length-prefixed JSON frames.

    A frame is the ASCII header line ["DPP1 <len>\n"] followed by exactly
    [len] payload bytes (a single JSON document).  The length prefix makes
    message boundaries explicit, so a reader can reject an oversized frame
    {e before} allocating it and detect a truncated one (peer died
    mid-frame) instead of blocking forever on a missing terminator.

    Requests flow client -> server; responses (including the streamed
    per-stage [Event]s) flow back.  Every response carries the job id it
    belongs to, which is what lets one connection multiplex the trace
    streams of several in-flight jobs without ambiguity. *)

exception Protocol_error of string
(** Framing or message-shape violation: bad header, oversized or truncated
    frame, malformed or unknown-op payload.  Always raised in preference
    to returning garbage. *)

(** {1 Framing} *)

val magic : string
(** ["DPP1"] — the header tag, doubling as a protocol version. *)

val default_max_frame : int
(** 8 MiB payload ceiling. *)

val encode_frame : string -> string
(** Header + payload, ready for a single write. *)

val decode_frame : ?max_len:int -> string -> string * int
(** Pure single-frame decode: the payload and the number of unconsumed
    trailing bytes.  @raise Protocol_error on truncated or oversized
    input — the unit-testable core of {!read_frame}. *)

val read_frame : ?max_len:int -> Unix.file_descr -> string option
(** Blocking read of one frame; [None] on a clean EOF at a frame
    boundary.  @raise Protocol_error on a truncated frame, a bad header,
    or a declared length above [max_len] (checked before allocation). *)

val write_frame : Unix.file_descr -> string -> unit

(** {1 Messages} *)

(** Where the server finds the job's netlist.  [Preset] names any
    {!Dpp_gen.Catalog} design, built with [seed] in place of the preset's
    own seed; [Bookshelf] reads [basename.aux] from the server's
    filesystem. *)
type design_src = Preset of { name : string; seed : int } | Bookshelf of { basename : string }

type job_spec = {
  src : design_src;
  mode : Dpp_core.Config.mode;
  check : bool;  (** run the stage-boundary oracles; failures fail the job *)
  jobs : int;
      (** worker-pool width for this job's kernels, at most 16
          ({!Dpp_par.Pool.chunk_count}); larger values run at 16 *)
  gp_rounds : int option;  (** config overrides; [None] keeps the default *)
  gp_inner_iters : int option;
  detail_passes : int option;
  out : string option;  (** write the placed design as Bookshelf [BASE.*] *)
}

val spec :
  ?mode:Dpp_core.Config.mode ->
  ?check:bool ->
  ?jobs:int ->
  ?gp_rounds:int ->
  ?gp_inner_iters:int ->
  ?detail_passes:int ->
  ?out:string ->
  design_src ->
  job_spec
(** Spec builder with the protocol's defaults (baseline, no check, 1 job
    worker, no overrides). *)

val spec_to_json : job_spec -> Dpp_report.Json.t
val spec_of_json : Dpp_report.Json.t -> job_spec
(** @raise Protocol_error on missing/ill-typed required fields. *)

(** The edit list of an ECO job: explicit, or generated {e server-side}
    by {!Dpp_core.Eco.random_edits} against the placed base — the seeded
    form the bench and CI smoke traffic use, since edit locality is only
    meaningful relative to the base {e placement}, which the client does
    not hold. *)
type edit_source = Edits of Dpp_core.Eco.edit list | Random_edits of { ops : int; seed : int }

type request =
  | Submit of job_spec  (** full placement job *)
  | Eco_submit of { base : job_spec; edits : edit_source; threshold : float option; verify : bool }
      (** incremental job: place (or fetch) the base, then re-place the
          edit list's dirty region via {!Dpp_core.Eco.run}.  With
          [verify], the server asserts every clean cell is bit-identical
          to the base placement and fails the job otherwise — the
          differential gate, enforced where the base is known. *)
  | Ping
  | Shutdown  (** stop accepting, drain in-flight jobs, exit *)

type eco_summary = { fallback : bool; dirty_fraction : float }

type response =
  | Accepted of { job : int }  (** job queued; its id tags every later message *)
  | Rejected of { reason : string }  (** queue full or malformed submission *)
  | Event of { job : int; stage : Dpp_report.Trace.stage }
      (** streamed after each pipeline stage of the job completes *)
  | Done of { job : int; hpwl : float; wall_s : float; eco : eco_summary option }
  | Failed of { job : int; reason : string }
  | Pong

val request_to_json : request -> Dpp_report.Json.t
val request_of_json : Dpp_report.Json.t -> request
val response_to_json : response -> Dpp_report.Json.t
val response_of_json : Dpp_report.Json.t -> response
(** @raise Protocol_error on an unknown op or missing required field. *)

val send_request : Unix.file_descr -> request -> unit
val send_response : Unix.file_descr -> response -> unit

val recv_response : ?max_len:int -> Unix.file_descr -> response option
(** Frame read + JSON parse + decode; [None] on clean EOF.
    @raise Protocol_error on any framing or message-shape violation. *)
