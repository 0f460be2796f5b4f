(** Structured per-stage flow traces, serialized as JSON.

    One {!stage} record is emitted per pipeline stage by the flow's
    observer hook; a {!t} bundles the stages of one complete run.  The
    JSON schema (consumed by [dpp_place --trace] and the bench harness):

    {v
      [ { "design": "<name>", "mode": "baseline|structure-aware",
          "total_s": <float>,
          "stages": [ { "name": "<stage>", "wall_s": <float>,
                        "t_s": <float>,
                        "hpwl_before": <float>, "hpwl_after": <float>,
                        "overflow": <float|null>,
                        "levels": [ { "index": <int>, "movables": <int>,
                                      "hpwl": <float>, "overflow": <float>,
                                      "wall_s": <float> }, ... ],
                        "check": null | { "ok": <bool>,
                                          "oracles": [<string>...],
                                          "violations": [<string>...] } },
                      ... ] }, ... ]
    v}

    [overflow] is [null] for stages where no density evaluation happens
    (every stage except global placement).  [check] is [null] unless the
    run was made in [--check] mode, in which case it carries the verdict of
    the invariant oracles that ran at this stage boundary. *)

type check = {
  ok : bool;  (** no oracle reported a violation *)
  oracles : string list;  (** which oracles ran at this boundary *)
  violations : string list;  (** rendered violation reports, empty when ok *)
}

type level = {
  index : int;  (** 1 = first coarse level, larger = coarser *)
  movables : int;  (** movable cluster count at this level *)
  hpwl : float;  (** coarse-netlist HPWL after the level's solve *)
  overflow : float;
  wall_s : float;
}

type stage = {
  name : string;
  wall_s : float;  (** wall-clock seconds spent in the stage *)
  t_s : float;
      (** wall-clock offset of the stage's completion from the start of the
          run — monotonically non-decreasing across a run's stages *)
  hpwl_before : float;  (** weighted HPWL entering the stage *)
  hpwl_after : float;
  overflow : float option;  (** density overflow, when the stage tracks it *)
  vm_hwm_kb : int;
      (** process VmHWM sampled at the stage boundary, in kB — monotone
          across a run's stages, so the stage whose sample first jumps is
          the one that spiked resident memory; [0] when unavailable *)
  heap_kb : int;
      (** OCaml major-heap high-water mark ([Gc.quick_stat] top-heap) at
          the stage boundary, in kB; [0] when unavailable *)
  levels : level list;
      (** multilevel V-cycle solves, ascending level order; empty for
          every stage except a multilevel gp stage *)
  check : check option;  (** oracle verdict, when the run checks stages *)
  extra : (string * Json.t) list;
      (** unknown per-stage fields, preserved verbatim so the schema can
          evolve: a producer may attach new keys (the serve layer's event
          stream does) and [stage_to_json (stage_of_json s)] round-trips them
          instead of erroring.  The flow attaches the Gc deltas
          [gc_minor_mwords]/[gc_major_mwords]/[gc_majors] to every stage,
          [legal_failed] (cells that fit in no row) to legal,
          [rt_rounds]/[rt_best_ace] to a steered gp stage and
          [steiner]/[rudy_max]/[rudy_ace] to metrics. *)
}

type t = { design : string; mode : string; total_s : float; stages : stage list }

val to_json : t -> Json.t
(** One run as a JSON object (an element of the array {!write} emits);
    {!of_json} reads it back. *)

val stage_to_json : stage -> Json.t
(** One stage record as a JSON object — the encoding {!to_json} uses and
    the serve layer's per-stage event payload.  [extra] fields are
    appended verbatim. *)

val stage_of_json : Json.t -> stage
(** Tolerant stage parser: known fields are decoded ([levels] is accepted
    on {e any} stage, not just [gp]); unrecognized object fields land in
    {!stage.extra} and survive a re-encode.  Missing numeric fields
    default to [0.].
    @raise Json.Parse_error if the value is not an object. *)

val of_json : Json.t -> t
(** Parse one run object (an element of the array {!write} emits).
    @raise Json.Parse_error if the value is not an object. *)

val write : path:string -> t list -> unit
(** Write runs as a JSON array (pretty enough: one object per line). *)
