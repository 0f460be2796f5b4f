(** Stage-boundary invariant checking: the policy mapping each pipeline
    stage to the {!Dpp_check} oracles that must hold when it finishes.

    Every boundary checks coordinate finiteness and, whenever the context
    carries a live {!Dpp_wirelen.Netbox}, its agreement with a fresh
    rescan.  From legalization onward the full legality audit and the
    snapped-group rigidity oracle join in.  Earlier stages (init, gp, snap)
    legitimately hold overlapping or off-grid intermediate placements, so
    legality is not asserted there.  The metrics boundary adds the
    congestion and Steiner oracles: both recompute the stage's figures
    from scratch over the context's own pin view, so a Steiner length
    reused from an ECO base for a net that in fact changed fails here.

    Used by {!Flow.run} in check mode; a failing verdict there raises
    {!Flow.Check_failed} attributed to the stage that introduced it. *)

val run : stage:string -> Ctx.t -> Dpp_report.Trace.check
(** Run the oracles configured for the named stage against the context's
    current state.  Never raises; the verdict carries rendered violation
    reports. *)

(** Stage-boundary snapshots: everything a context holds that the post-gp
    stages are a pure function of — centers, orientations, the frozen-cell
    sets, obstacle outlines, the ECO bound, and the row assignment.
    Restoring one into a fresh context and running the remaining stages
    reproduces the interrupted run bit-for-bit, which is what the serve
    layer's crash recovery (SIGTERM mid-job -> restart -> resume) relies
    on.  Serialized as a single JSON object (the server's spool format). *)
module Snapshot : sig
  type t = {
    stage : string;  (** last {e completed} stage *)
    design : string;  (** design name, for spool-file sanity checks *)
    cx : float array;  (** cell centers *)
    cy : float array;
    orient : Dpp_geom.Orient.t array;
    skip_ids : int array;
    flip_skip_ids : int array;
    obstacles : Dpp_geom.Rect.t list;
    bound : Dpp_geom.Rect.t option;
    assignment : int array;  (** row assignment; [[||]] before legal *)
    failed : int list;
  }

  val capture : stage:string -> Ctx.t -> t
  (** Copy the context's restorable state (arrays are copied, so later
      stages cannot mutate the snapshot). *)

  val restore : t -> Ctx.t -> unit
  (** Install the snapshot into a context freshly created over the same
      design by {!Flow.context}, before {!Flow.run_ctx}.  Orientation
      diffs are applied to both the design and the shared pin view, so no
      rebuild is needed.  @raise Invalid_argument naming the field when
      the snapshot does not fit the design's [n] cells: [orient], [cx]
      or [cy] not of length [n], [assignment] neither empty nor of
      length [n], or an id in [skip_ids], [flip_skip_ids] or [failed]
      outside [0 .. n-1]. *)

  val of_json : Dpp_report.Json.t -> t
  (** The spool object; the serve layer embeds it next to the job spec. *)

  val output : out_channel -> t -> unit
  (** Stream the snapshot's JSON straight to a channel — no intermediate
      tree or string, O(1) retained memory however large the design. *)

  val encode : t -> string
  val decode : string -> t
  (** @raise Dpp_report.Json.Parse_error on malformed input. *)
end
