(** Initial quadratic placement: minimise a quadratic net model with the
    fixed cells (pads, macros) as boundary conditions, solved per axis with
    Jacobi-PCG over the connectivity Laplacian.

    Net model: clique for nets of up to 4 cells (weight [1/(k-1)]), a
    Hamiltonian-cycle chain for larger nets (weight [2/k]) — the standard
    cheap star/clique compromise.  A weak anchor to the die center keeps
    the system positive definite for designs with no fixed pins, and a
    deterministic jitter of one site breaks the exact-overlap degeneracy
    the density model cannot see. *)

type result = {
  cx : float array;  (** cell centers, all cells (fixed untouched) *)
  cy : float array;
  iterations_x : int;
  iterations_y : int;
}

val run_with : seed:int -> soa:Dpp_netlist.Soa.t -> Dpp_netlist.Design.t -> result
(** The solve over the cell<->net incidence of [soa], the flat view of
    the design (the flow passes its context's). *)

val run : ?seed:int -> Dpp_netlist.Design.t -> result
(** [run ~seed d = run_with ~seed ~soa:(Soa.of_design d) d]; [seed]
    defaults to 1. *)
