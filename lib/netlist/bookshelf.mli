(** Bookshelf-format I/O (UCLA placement benchmark format: .aux, .nodes,
    .nets, .pl, .scl), plus two extensions this project needs and the
    vanilla format cannot carry:

    - [.masters]: one "cellname master" line per cell, so the extractor's
      signature refinement survives a round trip;
    - [.groups]: ground-truth datapath groups, one header line
      "Group name slices stages" followed by slice rows of cell names with
      "-" for holes.

    Pin offsets follow Bookshelf convention (relative to the cell {e
    center}); the in-memory model uses lower-left offsets, converted on the
    way in and out.  Pin directions map to Bookshelf's [I]/[O]/[B].

    Files are written alongside a common base path: [write d ~basename:"foo"]
    produces [foo.aux], [foo.nodes], ...

    Known format limitation: pins exist only as net members in Bookshelf,
    so {e unconnected} pins are not representable and disappear on a round
    trip (cells, nets, placements and groups survive exactly). *)

exception Parse_error of string
(** Raised with a "file:line: message" payload on malformed input.  Every
    malformed input ends here, never in another exception: a bad token, a
    non-finite number ([nan], [inf]), a duplicate node name, a movable node
    without positive size, a non-positive [Sitewidth], a net of degree 0 or
    with a wrong pin count, an unknown cell name, or a group header with no
    slices or stages.  A missing [.aux] entry names only the [.aux] file;
    rows that do not tile a die, and a die whose width is not finite and
    positive (rows without [NumSites] take four times the widest node, so
    a design of zero-width nodes has none), only the [.scl] file.

    Lines end at ['\n'] (the last one may lack it) and are split into the
    maximal runs of characters other than space, tab, CR and [':'], with
    each [':'] a token of its own; blank lines, lines whose first
    non-blank character is ['#'], and a first line starting with [UCLA]
    are skipped.  Numbers read to exactly the bits [float_of_string] and
    [int_of_string] give their tokens.

    Each file is scanned through one refillable buffer that grows to fit
    its longest line; tokens are offsets into it, and only the names the
    design keeps (cells, nets, groups, one string per distinct master)
    become strings. *)

val write : Design.t -> basename:string -> unit

val read : basename:string -> Design.t
(** Reads [basename.aux] and every file it references.
    @raise Parse_error on malformed input
    @raise Sys_error if a file is missing *)
