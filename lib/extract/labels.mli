(** Typed connection labels over data nets.

    A directed edge [u -> v] exists when a data net joins pin [p] of cell
    [u] to pin [q] of cell [v]; its {e label} is the hash of
    [(class u, pin class p, class v, pin class q)].  In a replicated
    bit-slice structure the same label appears once per slice, so label
    frequency separates structural wiring from incidental wiring, and
    following one label in parallel from every cell of a column lands on
    another column.

    The index is flat: each source cell's edges sit in two int arrays in
    generation order (data nets in order, then ordered pin pairs), each
    (label, target) pair once per cell, and an {!Idtab} maps a label to
    the dense id its count and target class are stored under. *)

type t

val build : Dpp_netlist.Soa.t -> Netclass.t -> Signature.t -> t

val labels_from_class : t -> int -> int list
(** Distinct labels whose source class is the given signature class,
    ascending. *)

val count : t -> int -> int
(** Number of edges carrying a label. *)

val target : t -> cell:int -> label:int -> int
(** The unique target of [cell] under [label]; [-1] when absent or
    ambiguous (two different targets). *)

val target_class : t -> int -> int
(** Target signature class of a label from {!labels_from_class}. *)
