(** Golden output bits: per preset, what the flow's extraction and
    placement produce from the design read back out of the Bookshelf
    files its generator wrote (so the reader is on the path).  A row
    holds a digest of [Slicer.run]'s groups and counts, and the final
    HPWL (as an exact hex float) and the MD5 of the written [.pl] at one
    and at four worker domains.  The [.pl] digest is the one
    [dpp_place --bookshelf B --jobs N --out P] gives for [P.pl], with
    [--mode baseline --flat --routability] for {!Dpp_gen.Channel.name}
    and [--mode sa] for every other preset.

    A committed file of rows gates bit-identity: [test_golden] checks the
    extraction digests and the Table-1 rows at one domain, and
    [dpp_golden check] every field. *)

val table1 : string list
(** The seven Table-1 presets. *)

val presets : string list
(** {!table1}, then [rt_channel] and [xl10k]. *)

type row = {
  preset : string;
  extract : string;
  hpwl_j1 : string;
  pl_j1 : string;
  hpwl_j4 : string;
  pl_j4 : string;
}

val extraction : string -> string
(** The [extract] field of a preset. *)

val placement : string -> jobs:int -> string * string
(** The HPWL and [.pl] digest fields of a preset at [jobs] domains. *)

val row : string -> row

val to_line : row -> string

val load : string -> row list
(** The rows of a golden file; lines starting with ['#'] are comments.
    @raise Failure on a malformed line. *)
