(* Compact scalar arrays over Bigarray for the flat netlist core.

   OCaml [int array]s cost 8 bytes per element and [Types.direction
   array]s a full word per tag; the flat core's CSR connectivity and
   per-pin metadata dominate the netlist footprint at the million-cell
   scale.  These wrappers store the same values in 4 bytes (int32), 1
   byte (int8) or 8 bytes (unboxed float64), outside the OCaml heap —
   the GC never scans them.

   Accessors come in two flavours: [get]/[set] are bounds-checked and
   are what non-kernel code should use; [uget]/[uset] compile to a bare
   load/store (plus sign-extension) and are for the hot kernels that
   iterate CSR ranges whose bounds are established by construction.
   They are [external] primitives rather than functions: a build that
   compiles each module opaquely (dune's dev profile passes [-opaque])
   never inlines a function from another module, so a plain [let uget]
   would cost every CSR read a closure call.  A primitive is specialised
   at the call site under any profile.  [I32]'s primitives exchange
   [int32]; [Int32.to_int]/[Int32.of_int] are primitives too, and the
   conversion folds into the load or store.  The values being exact, a
   kernel reads the same integers and floats either way.

   [I32.guard] is the build-time overflow gate: callers that are about
   to store counts (CSR offsets, entity ids) must pass the largest one
   through it and get a clean [Failure] past 2^31-1 instead of a silent
   wrap. *)

module BA = Bigarray
module A1 = Bigarray.Array1

module I32 = struct
  type t = (int32, BA.int32_elt, BA.c_layout) A1.t

  let max_value = Int32.to_int Int32.max_int

  let guard ~what n =
    if n > max_value || n < Int32.to_int Int32.min_int then
      failwith
        (Printf.sprintf
           "%s: %d exceeds the int32 compact-array range (max %d); rebuild with a wider \
            index type"
           what n max_value)

  let make n v : t =
    let a = A1.create BA.int32 BA.c_layout n in
    A1.fill a (Int32.of_int v);
    a

  let length : t -> int = A1.dim
  let get (a : t) i = Int32.to_int (A1.get a i)
  let set (a : t) i v = A1.set a i (Int32.of_int v)

  external uget : t -> int -> int32 = "%caml_ba_unsafe_ref_1"
  external uset : t -> int -> int32 -> unit = "%caml_ba_unsafe_set_1"

  let of_array ~what (xs : int array) : t =
    let n = Array.length xs in
    let a = A1.create BA.int32 BA.c_layout n in
    for i = 0 to n - 1 do
      guard ~what xs.(i);
      A1.unsafe_set a i (Int32.of_int xs.(i))
    done;
    a

  let to_array (a : t) = Array.init (A1.dim a) (fun i -> Int32.to_int (uget a i))

  let blit_array (xs : int array) ~src_off (a : t) ~dst_off ~len =
    for i = 0 to len - 1 do
      A1.set a (dst_off + i) (Int32.of_int xs.(src_off + i))
    done

  let sub_array (a : t) ~off ~len = Array.init len (fun i -> get a (off + i))
end

module I8 = struct
  type t = (int, BA.int8_unsigned_elt, BA.c_layout) A1.t

  let make n v : t =
    let a = A1.create BA.int8_unsigned BA.c_layout n in
    A1.fill a v;
    a

  let length : t -> int = A1.dim
  let get (a : t) i : int = A1.get a i
  let set (a : t) i (v : int) = A1.set a i v

  external uget : t -> int -> int = "%caml_ba_unsafe_ref_1"
  external uset : t -> int -> int -> unit = "%caml_ba_unsafe_set_1"
end

module F64 = struct
  type t = (float, BA.float64_elt, BA.c_layout) A1.t

  let make n v : t =
    let a = A1.create BA.float64 BA.c_layout n in
    A1.fill a v;
    a

  let length : t -> int = A1.dim
  let get (a : t) i : float = A1.get a i
  let set (a : t) i (v : float) = A1.set a i v

  external uget : t -> int -> float = "%caml_ba_unsafe_ref_1"
  external uset : t -> int -> float -> unit = "%caml_ba_unsafe_set_1"

  let of_array (xs : float array) : t = A1.of_array BA.float64 BA.c_layout xs
  let to_array (a : t) = Array.init (A1.dim a) (fun i -> uget a i)
end
