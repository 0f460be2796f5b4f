(** Typed connection labels over data nets.

    A directed edge [u -> v] exists when a data net joins pin [p] of cell
    [u] to pin [q] of cell [v]; its {e label} is the hash of
    [(class u, pin class p, class v, pin class q)].  In a replicated
    bit-slice structure the same label appears once per slice, so label
    frequency separates structural wiring from incidental wiring, and
    following one label in parallel from every cell of a column lands on
    another column. *)

type t

val build : Dpp_netlist.Design.t -> Netclass.t -> Signature.t -> t

val labels_from_class : t -> int -> int list
(** Distinct labels whose source class is the given signature class. *)

val count : t -> int -> int
(** Number of edges carrying a label. *)

val target : t -> cell:int -> label:int -> int option
(** The unique target of [cell] under [label]; [None] when absent or
    ambiguous (two different targets). *)

val targets_exn : t -> cell:int -> label:int -> int list
(** All targets (possibly empty), for diagnostics. *)

val source_class : t -> int -> int
(** Source signature class of a label. *)

val target_class : t -> int -> int
