(** Dense ids for non-negative hash values.  The keys extraction interns
    (signature colours, connection labels) are splitmix outputs, so their
    low bits index this open-addressing table directly; ids are handed
    out 0, 1, ... in first-seen order.  The load stays at or below one
    half. *)

type t

val create : int -> t
(** [create n]: room for [n] keys before the first doubling. *)

val id : t -> int -> int
(** The key's id, handing out the next one when the key is new.
    @raise Invalid_argument on a negative key. *)

val find : t -> int -> int
(** The key's id, or [-1] when it has none. *)

val count : t -> int
(** Ids handed out so far. *)

val clear : t -> unit
(** Forget every key; the next id is 0 again. *)
