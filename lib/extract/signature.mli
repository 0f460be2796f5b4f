(** Functional signatures by Weisfeiler–Lehman colour refinement over the
    cell/net incidence structure.

    Round 0 colours each movable cell by its library master.  Each round
    re-colours a cell by hashing its previous colour together with the
    sorted multiset of [(own pin class, net degree bucket, neighbour colour,
    neighbour pin class)] tuples over its {e data} nets — control nets are
    excluded so that replicated bit-slices, whose only difference is which
    control-net {e bit position} they occupy, keep identical colours.
    After [k] rounds two cells share a colour iff their radius-[k]
    data-neighbourhoods are isomorphic, which is the replication the
    extractor keys on.

    Pin classes are geometric ([direction, dx, dy] of the pin), not pin
    ids, so signatures survive Bookshelf round trips that renumber pins.

    Everything is read off the {!Dpp_netlist.Soa.t} the slicer holds:
    each cell's tuples are sorted in one reusable buffer, and colours are
    compacted through an {!Idtab}. *)

type t = {
  colors : int array;  (** per cell: compacted class id, or -1 for fixed cells *)
  num_classes : int;
  class_members : int array array;  (** class id -> member cells, ascending *)
  pin_classes : int array;  (** per pin: {!pin_class} *)
}

val compute : Dpp_netlist.Soa.t -> Netclass.t -> iterations:int -> t

val mix : int -> int -> int
(** The splitmix64 finaliser over [h + v * golden]: deterministic,
    independent of [Hashtbl.hash], and non-negative. *)

val pin_class : Dpp_netlist.Soa.t -> int -> int
(** Stable hash of a pin's (direction, dx, dy) within its cell. *)

val class_of : t -> int -> int
(** Class id of a cell ([-1] for fixed/pad cells). *)
