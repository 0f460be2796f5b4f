(** Slice growth and group formation — the extraction core.

    Two seed sources create {e columns} (one cell per slice, same signature
    class, with slice indices):

    - {b control columns}: the same-class sinks of a control net sit one
      per slice at the same stage (op-selects, clocks, write enables,
      multiplier operand columns);
    - {b chain columns}: for structures with no control anchor (plain
      carry chains, comparators), a label composition that returns to its
      starting class as an injective fixed-point-free partial map is a
      slice-successor relation; its orbits, read off in order, are columns
      (e.g. adder: carry-out -> next sum-xor -> p-xor -> transmit-and ->
      carry-out composes to "slice i -> slice i+1").

    Columns then grow by {e parallel BFS}: following one label from every
    cell of a column lands on a new same-class column with inherited slice
    ids; expansions that mostly hit cells already owned, or whose targets
    collide, are rejected.  Finally each group's columns become the stage
    axis and its slice ids the row axis of a {!Dpp_netlist.Groups.t}. *)

type config = {
  max_data_degree : int;  (** nets above this are control; default 5 *)
  refine_iterations : int;  (** signature WL rounds; default 3 *)
  min_slices : int;  (** minimum group height; default 4 *)
  min_stages : int;  (** minimum group width; default 2 *)
  coverage : float;  (** fraction of a column a label must map; default 0.7 *)
  max_conflict : float;  (** tolerated cross-group collisions; default 0.2 *)
  chain_depth : int;  (** max label-composition length; default 4 *)
  max_labels_per_class : int;  (** DFS branching cap; default 12 *)
}

val default_config : config

type result = {
  groups : Dpp_netlist.Groups.t list;  (** extracted, filtered, named "dp0".. *)
  seeds_control : int;  (** control columns accepted *)
  seeds_chain : int;  (** chain columns accepted *)
  columns_grown : int;  (** BFS expansions accepted *)
}

val run_with : soa:Dpp_netlist.Soa.t -> config -> result
(** Extraction over [soa], the flat view of the design (the flow passes
    its context's): signatures, labels and seeds all read it. *)

val run : Dpp_netlist.Design.t -> config -> result
(** [run d = run_with ~soa:(Soa.of_design d)]. *)
