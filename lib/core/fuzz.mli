(** Seeded differential fuzzing of the placement flow and its incremental
    caches — the engine behind [bin/dpp_fuzz] and [test/test_fuzz].

    A {!case} is derived deterministically from a single integer seed
    ({!case_of_seed}), so every failure replays from one command line.
    Each case runs three layers of checks, cheapest first:

    - {b unit}: an adversarial micro-design (single-pin nets, unconnected
      pins, fixed blockers, coincident pin offsets) goes through the
      Bookshelf round-trip oracle and the LSE
      gradient-vs-finite-difference oracle;
    - {b differential}: random move/flip/commit/rollback sequences against
      the {!Dpp_wirelen.Netbox} incremental cache, cross-checked against
      the fresh-rescan HPWL evaluator and the cache's own audit;
    - {b flow}: a generated benchmark ({!Dpp_gen.Presets.scaled} across the
      case's size/regularity point) is placed by both the baseline and the
      structure-aware pipeline with stage checking on; any
      {!Flow.Check_failed} becomes a failure attributed to its stage;
    - {b multilevel-vs-flat}: the same benchmark is placed once with the
      multilevel V-cycle forced on (thresholds lowered so it engages at
      fuzz sizes) and once forced flat, both in check mode — so the
      cluster-integrity oracle gates every level boundary — and the final
      HPWLs must agree within a bounded factor;
    - {b routability}: the virtual-area inflation overlay must round-trip
      bit for bit on the density potential
      ({!Dpp_density.Bell.set_inflation} / [reset_inflation]), and a
      congestion-steered flow ([routability] on, short steering interval,
      full check mode — so the legality, group-rigidity, congestion and
      rt-ledger oracles all gate it) must stay within a bounded HPWL
      factor of the congestion-blind flow on the same design;
    - {b eco}: a seeded {!Eco.random_edits} list is replayed incrementally
      against a placed base ({!Eco.run} in check mode); every frozen cell
      must stay bit-identical to the base placement and the result must
      pass the legality oracles and the Steiner oracle, which recomputes
      the nets whose lengths came from the base record.  On failure the {e edit list itself} is
      minimized (greedy one-at-a-time delta debugging) and the minimal
      still-failing list is printed as JSON, replayable through
      [dpp_serve eco --edits].

    On failure, {!shrink} greedily halves the case (fewer cells, fewer
    nets, shorter move sequence, fewer ECO edits) while the failure
    reproduces, yielding a minimal reproducer. *)

type case = {
  seed : int;
  cells : int;  (** flow design size (the micro-design scales with it) *)
  nets : int;  (** extra random nets in the micro-design *)
  moves : int;  (** length of the move/flip/commit/rollback sequence *)
  dp_fraction : float;  (** datapath fraction of the flow design *)
  jobs : int;
      (** worker domains; above 1 a fourth layer runs parallel-vs-serial
          differentials on every pooled kernel, plus a jobs-N vs jobs-1
          whole-flow determinism differential — all with [Float.equal],
          no tolerance *)
  eco_ops : int;  (** length of the seeded ECO edit list *)
}

type failure = {
  case : case;
  kind : string;
      (** ["bookshelf"], ["gradient"], ["netbox"], ["par"], ["flow"] or
          ["multilevel"] *)
  stage : string;  (** offending pipeline stage, or the sub-check name *)
  detail : string list;  (** rendered violation reports *)
}

val case_of_seed : int -> case
(** Deterministic: equal seeds yield equal cases.  [jobs] is always 1;
    callers raise it explicitly (e.g. from [dpp_fuzz --jobs]). *)

val replay_command : case -> string
(** The one-command reproducer, e.g.
    ["dpp_fuzz --seed 7 --cells 140 --nets 52 --moves 80 --dp-fraction 0.3 --eco-ops 4"]. *)

val pp_failure : Format.formatter -> failure -> unit

val random_design : seed:int -> cells:int -> nets:int -> Dpp_netlist.Design.t
(** The adversarial micro-design generator (also used directly by tests).
    Deterministic in [seed]; at least 8 cells and 2 nets. *)

val run_case : ?flow:bool -> case -> failure option
(** Run every check layer on one case; [~flow:false] skips the (orders of
    magnitude slower) full-pipeline layer. *)

val shrink : (case -> failure option) -> failure -> failure
(** [shrink rerun f] greedily halves [cells] / [nets] / [moves] while
    [rerun] keeps failing, returning the smallest still-failing case's
    failure.  [rerun] is typically [run_case] with the original layers. *)
