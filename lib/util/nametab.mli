(** A symbol table: distinct strings numbered 0, 1, ... in the order
    they are added, looked up by a string or by a slice of a byte buffer
    without allocating, so a streaming reader finds a name in its input
    buffer before (or instead of) copying it out.  Adding interns:
    [name t (add t s)] is the one string of [s]'s content the table
    holds, however often [s] recurs.

    Open addressing over (hash, id) pairs held in one int array, so a
    probe reads one cache line and compares bytes only where the hashes
    agree; the load stays at or below one half.  A lookup first tries the
    id after the one it returned last: a file that lists names in id
    order costs one string comparison per line. *)

type t

val create : int -> t
(** [create n]: room for [n] strings before the first doubling. *)

val length : t -> int
(** Strings added so far. *)

val name : t -> int -> string

val find : t -> string -> int
(** The string's id, or [-1] when it was never added. *)

val find_sub : t -> Bytes.t -> pos:int -> len:int -> int
(** {!find} of [Bytes.sub_string b pos len], allocation-free. *)

val add : t -> string -> int
(** The string's id, numbering it next when it is new (the table keeps
    the string itself, not a copy). *)

val add_sub : t -> Bytes.t -> pos:int -> len:int -> int
(** {!add} of [Bytes.sub_string b pos len], copying the slice only when
    it is new. *)
