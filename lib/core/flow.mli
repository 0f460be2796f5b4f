(** The end-to-end placement flow — the library's main entry point.

    {v
      validate -> [extract] -> QP init -> nonlinear GP (+ alignment)
               -> [group snap] -> Tetris + Abacus -> detailed placement
               -> flip -> metrics
    v}

    Bracketed stages run only in [Structure_aware] mode.  The input design
    is never modified; the result carries a placed copy.

    The flow is an explicit {!stage} list over one shared {!Ctx.t}: each
    stage reads and mutates the context (design copy, pin view, live
    coordinates, incremental {!Dpp_wirelen.Netbox} cost cache) and the
    driver wraps every stage with timing and HPWL bookkeeping, reported
    through the [observer] hook and the result's [stage_trace]. *)

exception Invalid_design of Dpp_netlist.Validate.issue list
(** Raised when validation reports errors. *)

exception Check_failed of { stage : string; violations : string list }
(** Raised in check mode when a stage boundary fails its {!Checkpoint}
    oracles.  [stage] is the stage that {e introduced} the violation —
    every earlier boundary was checked clean — so a corrupted cache or an
    illegal placement is attributed where it happened, not three stages
    later as a mysteriously worse HPWL. *)

type result = {
  design : Dpp_netlist.Design.t;  (** placed copy of the input *)
  config : Config.t;
  hpwl_final : float;  (** after detailed placement and flipping *)
  steiner_final : float;
  steiner_nets : Dpp_steiner.Rsmt.nets;
      (** the per-net lengths behind [steiner_final], each with the pin
          coordinates it was computed from — what an {!Eco} against this
          placement reuses for the nets its edits leave in place *)
  congestion : Dpp_congest.Rudy.stats;  (** RUDY demand statistics at the final placement *)
  critical_delay : float;  (** lite-STA critical path delay at the final placement *)
  overflow_gp : float;
  align_error_final : float;  (** 0 when no groups are in play *)
  groups_used : Dpp_netlist.Groups.t list;  (** groups that steered placement *)
  extraction : (Dpp_extract.Slicer.result * Dpp_extract.Exmetrics.t) option;
      (** present when extraction ran; metrics compare against the design's
          ground-truth labels (empty truth yields trivial metrics) *)
  trace : Dpp_place.Gp.round_info list;
  rt_trace : Dpp_place.Gp.rt_round list;
      (** the GP routability-steering ledger (flat refinement in multilevel
          runs); [[]] unless [routability] was on and steering ran *)
  stage_trace : Dpp_report.Trace.stage list;
      (** one record per pipeline stage, flow order *)
  total_time : float;
      (** wall time from the first stage to the assembled result;
          validation and context creation are not included *)
}

type stage = { name : string; run : Ctx.t -> Ctx.t }
(** One pipeline step.  Stages communicate only through the context. *)

val stages : Config.t -> stage list
(** The stage list the driver executes for a given configuration (the
    extract stage is present only in [Structure_aware] mode). *)

val extract_stage : stage
(** The extraction stage on its own — the serve layer substitutes a
    cache-backed variant for it by name. *)

val run :
  ?observer:(Dpp_report.Trace.stage -> unit) ->
  ?check:bool ->
  Dpp_netlist.Design.t ->
  Config.t ->
  result
(** [run d cfg] is [run_ctx ~stages:(stages cfg) (context d cfg)].
    [observer] fires after each stage completes, with that stage's trace
    record (name, wall time, HPWL before/after, overflow when tracked).
    With [~check:true] the {!Checkpoint} oracles validate the context at
    every stage boundary (verdicts land in the trace records, including
    the one handed to [observer]) and the first violation raises
    {!Check_failed}. *)

val context : Dpp_netlist.Design.t -> Config.t -> Ctx.t
(** Validate the input (warnings are logged), copy it and derive the
    context over the copy ({!Ctx.create}): the one place a flow pays for
    validation and for its [soa] and [pins] views.  The context's worker
    pool spawns no domain until a stage runs parallel work, so a caller
    may read the context (as {!Eco.run} plans on it) and install state
    into it before {!run_ctx}.
    @raise Invalid_design when validation reports errors. *)

val run_ctx :
  ?observer:(Dpp_report.Trace.stage -> unit) ->
  ?check:bool ->
  stages:stage list ->
  Ctx.t ->
  result
(** Run an explicit stage list over a context from {!context}, assemble
    the result and shut the context's worker pool down (also when a stage
    raises).  [observer] and [check] behave as in {!run}.  The list must
    end in a metrics stage for the result to be assembled; when no gp
    stage is present [overflow_gp] is 0 and [trace]/[rt_trace] are
    empty.  The stage list is the hook the mutation tests and the fuzz
    harness use to splice fault-injection stages into the pipeline, and
    the one incremental ECO re-placement and checkpoint resume build on. *)

val run_stages :
  ?prepare:(Ctx.t -> unit) -> stages:stage list -> Dpp_netlist.Design.t -> Config.t -> result
(** {!context}, then [prepare] on the fresh context (it may install
    coordinates, skip sets, obstacles and a bound), then {!run_ctx}
    without observer or oracles. *)

val eco_stages : stage list
(** [legal; detail; flip; metrics] — the incremental ECO re-placement
    suffix.  Driven by the context's [bound], [skip], [flip_skip],
    [obstacles] and [steiner] (see {!Eco}), which {!Eco.run} installs
    before {!run_ctx}.  The metrics stage of any stage list measures
    Steiner with {!Dpp_steiner.Rsmt.measure} against the context's
    [steiner] record: empty in a full flow, the base's record in an ECO,
    and the same total either way. *)

val resume_stages : stages:stage list -> after:string -> stage list
(** The suffix of [stages] strictly after the named stage — the stage
    list a checkpoint resume runs.
    @raise Invalid_argument if no stage has that name. *)

val trace_of_result : result -> Dpp_report.Trace.t
(** The result's stage trace bundled for {!Dpp_report.Trace.write}. *)

val run_both : ?check:bool -> Dpp_netlist.Design.t -> Config.t -> result * result
(** Baseline and structure-aware on the same design with otherwise equal
    settings — the Table 3 comparison.  The given config's [mode] is
    ignored. *)
