(** The reproduction experiments: one function per table/figure of the
    (reconstructed) evaluation.  `bench/main.exe` is a thin driver over
    this module; examples and tests reuse the pieces.

    All experiments are deterministic.  Designs come from
    {!Dpp_gen.Presets}; the flows from {!Flow}. *)

type table = { t_title : string; t_header : string list; t_rows : string list list }

val print_table : table -> unit

val table1 : unit -> table
(** Benchmark statistics. *)

val table2 : unit -> table
(** Extraction quality: per design, found/true groups, precision, recall,
    F1, extraction time. *)

type t3_entry = {
  e_design : string;
  e_base : Flow.result;
  e_sa : Flow.result;
}

val run_suite : unit -> t3_entry list
(** Both flows on every suite design under {!Config.structure_aware}
    (the expensive shared computation behind tables 3, 4 and 6). *)

val table3 : t3_entry list -> table
(** Main result: HPWL and Steiner WL, baseline vs structure-aware, ratios
    and geometric means. *)

val table4 : t3_entry list -> table
(** Runtime breakdown per stage. *)

val table5 : unit -> table
(** Ablation: baseline vs rigid-macro vs soft-alignment vs unfiltered
    (regularity filter off) on three representative designs. *)

val table6 : t3_entry list -> table
(** Routability and timing: RUDY congestion statistics and the lite-STA
    critical path delay, baseline vs structure-aware. *)

val figure1 : unit -> Dpp_report.Series.t
(** GP convergence on dp_add32: HPWL and overflow per round, both
    flows. *)

val figure2 : unit -> Dpp_report.Series.t
(** Wirelength ratio (structure-aware / baseline) vs datapath fraction,
    on ~2500-cell designs. *)

val figure3 : unit -> Dpp_report.Series.t
(** Soft-alignment beta sweep on dp_add32: HPWL ratio and final
    alignment error. *)

val figure4 : unit -> Dpp_report.Series.t
(** Runtime vs design size (1000 to 8000 cells) for both flows. *)

val figure5 : unit -> Dpp_report.Series.t
(** Extraction robustness on dp_add32: precision/recall vs injected
    rewiring noise. *)
