(** Compact scalar arrays (int32 / int8 / unboxed float64) over
    [Bigarray.Array1], for the flat netlist core's CSR connectivity and
    per-pin metadata.

    Payloads live outside the OCaml heap: the GC never scans them and
    they cost exactly 4, 1 or 8 bytes per element.  [get]/[set] are
    bounds-checked and exchange plain [int]/[float] values; [uget]/[uset]
    are the unchecked variants for hot kernels whose index ranges are
    correct by construction (CSR walks).  They are declared [external],
    so every call compiles to a bare load or store even when this
    module's implementation is opaque to the caller; [I32]'s exchange
    [int32], which call sites convert with the [Int32.to_int] /
    [Int32.of_int] primitives. *)

module I32 : sig
  type t = (int32, Bigarray.int32_elt, Bigarray.c_layout) Bigarray.Array1.t

  val max_value : int
  (** Largest storable value, [2{^31} - 1]. *)

  val guard : what:string -> int -> unit
  (** [guard ~what n] raises [Failure] with a message naming [what] and
      [n] when [n] does not fit an int32 — the fail-fast overflow gate
      for CSR offset construction. *)

  val make : int -> int -> t
  (** [make n v]: length-[n] array filled with [v]. *)

  val length : t -> int
  val get : t -> int -> int
  val set : t -> int -> int -> unit
  external uget : t -> int -> int32 = "%caml_ba_unsafe_ref_1"
  external uset : t -> int -> int32 -> unit = "%caml_ba_unsafe_set_1"

  val of_array : what:string -> int array -> t
  (** Copies, passing every element through {!guard}. *)

  val to_array : t -> int array
  val blit_array : int array -> src_off:int -> t -> dst_off:int -> len:int -> unit
  val sub_array : t -> off:int -> len:int -> int array
end

module I8 : sig
  type t = (int, Bigarray.int8_unsigned_elt, Bigarray.c_layout) Bigarray.Array1.t

  val make : int -> int -> t
  val length : t -> int
  val get : t -> int -> int
  val set : t -> int -> int -> unit
  external uget : t -> int -> int = "%caml_ba_unsafe_ref_1"
  external uset : t -> int -> int -> unit = "%caml_ba_unsafe_set_1"
end

module F64 : sig
  type t = (float, Bigarray.float64_elt, Bigarray.c_layout) Bigarray.Array1.t

  val make : int -> float -> t
  val length : t -> int
  val get : t -> int -> float
  val set : t -> int -> float -> unit
  external uget : t -> int -> float = "%caml_ba_unsafe_ref_1"
  external uset : t -> int -> float -> unit = "%caml_ba_unsafe_set_1"
  val of_array : float array -> t
  val to_array : t -> float array
end
