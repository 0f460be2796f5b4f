(* Bookshelf round-trip tests: a generated design written and re-read must
   preserve all structure. *)

module Design = Dpp_netlist.Design
module Types = Dpp_netlist.Types
module Groups = Dpp_netlist.Groups
module Bookshelf = Dpp_netlist.Bookshelf
module Validate = Dpp_netlist.Validate
module Builder = Dpp_netlist.Builder

let small_spec =
  {
    Dpp_gen.Compose.sp_name = "bs_test";
    sp_seed = 9;
    sp_blocks = [ Dpp_gen.Compose.Adder 8; Regbank 8 ];
    sp_random_cells = 120;
    sp_utilization = 0.7;
  }

(* Write [d] under a fresh directory, hand [f] the basename, and remove
   the directory afterwards. *)
let with_written d f =
  let dir = Filename.temp_file "dpp_bs" "" in
  Sys.remove dir;
  Unix.mkdir dir 0o755;
  let base = Filename.concat dir "t" in
  Bookshelf.write d ~basename:base;
  Fun.protect
    ~finally:(fun () ->
      Array.iter (fun f -> Sys.remove (Filename.concat dir f)) (Sys.readdir dir);
      Unix.rmdir dir)
    (fun () -> f base)

let roundtrip d = with_written d (fun base -> Bookshelf.read ~basename:base)

(* The lines of a file without its final newline, and back. *)
let read_lines path =
  match List.rev (String.split_on_char '\n' (In_channel.with_open_bin path In_channel.input_all)) with
  | "" :: rest -> List.rev rest
  | lines -> List.rev lines

let write_lines path lines =
  Out_channel.with_open_bin path (fun oc ->
      List.iter (fun l -> output_string oc (l ^ "\n")) lines)

let test_roundtrip_counts () =
  let d = Dpp_gen.Compose.build small_spec in
  let d' = roundtrip d in
  Alcotest.(check int) "cells" (Design.num_cells d) (Design.num_cells d');
  Alcotest.(check int) "nets" (Design.num_nets d) (Design.num_nets d');
  Alcotest.(check int) "pins" (Design.num_pins d) (Design.num_pins d');
  Alcotest.(check int) "rows" d.Design.num_rows d'.Design.num_rows;
  Alcotest.(check int) "groups" (List.length d.Design.groups) (List.length d'.Design.groups)

let test_roundtrip_cells () =
  let d = Dpp_gen.Compose.build small_spec in
  let d' = roundtrip d in
  for i = 0 to Design.num_cells d - 1 do
    let c = Design.cell d i in
    (* names may be reordered only if ids changed; bookshelf preserves order *)
    let c' = Design.cell d' i in
    if c.Types.c_name <> c'.Types.c_name then
      Alcotest.failf "cell %d name %s <> %s" i c.Types.c_name c'.Types.c_name;
    if abs_float (c.Types.c_width -. c'.Types.c_width) > 1e-3 then
      Alcotest.failf "cell %d width differs" i;
    if c.Types.c_master <> c'.Types.c_master then Alcotest.failf "cell %d master differs" i;
    if Types.is_fixed_kind c.Types.c_kind <> Types.is_fixed_kind c'.Types.c_kind then
      Alcotest.failf "cell %d fixedness differs" i
  done

let test_roundtrip_positions () =
  let d = Dpp_gen.Compose.build small_spec in
  (* give the movables distinctive positions first *)
  Array.iteri
    (fun k i -> Design.set_center d i (10.0 +. float_of_int k) 15.0)
    (Design.movable_ids d);
  let d' = roundtrip d in
  for i = 0 to Design.num_cells d - 1 do
    if abs_float (d.Design.x.(i) -. d'.Design.x.(i)) > 1e-3 then
      Alcotest.failf "cell %d x differs: %f vs %f" i d.Design.x.(i) d'.Design.x.(i)
  done

let test_roundtrip_net_structure () =
  let d = Dpp_gen.Compose.build small_spec in
  let d' = roundtrip d in
  (* per net: the multiset of (cell name, pin offset) must match *)
  let key dd n =
    Array.to_list (Design.net dd n).Types.n_pins
    |> List.map (fun p ->
           let pin = Design.pin dd p in
           let c = Design.cell dd pin.Types.p_cell in
           ( c.Types.c_name,
             Float.round (pin.Types.p_dx *. 100.0),
             Float.round (pin.Types.p_dy *. 100.0) ))
    |> List.sort compare
  in
  for n = 0 to Design.num_nets d - 1 do
    if key d n <> key d' n then Alcotest.failf "net %d pin set differs" n
  done

let test_roundtrip_groups () =
  let d = Dpp_gen.Compose.build small_spec in
  let d' = roundtrip d in
  List.iter2
    (fun g g' ->
      Alcotest.(check string) "group name" g.Groups.g_name g'.Groups.g_name;
      Alcotest.(check int) "slices" (Groups.num_slices g) (Groups.num_slices g');
      Alcotest.(check int) "stages" (Groups.num_stages g) (Groups.num_stages g');
      if Groups.jaccard g g' < 1.0 then Alcotest.fail "group membership differs")
    d.Design.groups d'.Design.groups

let test_roundtrip_validates () =
  let d = Dpp_gen.Compose.build small_spec in
  let d' = roundtrip d in
  Alcotest.(check bool) "round-tripped design validates" true
    (Validate.is_clean (Validate.check d'))

(* ----- property tests over generated designs (oracle-driven) -----

   The same comparison the flow's check mode uses: write, re-read, and let
   Dpp_check.bookshelf_roundtrip report any structural difference.  Specs
   include movable macros (Ram blocks) and mixed regular structure. *)

let test_roundtrip_property () =
  List.iter
    (fun seed ->
      let d =
        Dpp_gen.Compose.build
          {
            Dpp_gen.Compose.sp_name = Printf.sprintf "bs_prop%d" seed;
            sp_seed = seed;
            sp_blocks = [ Dpp_gen.Compose.Ram (24, 4, 8); Adder 8; Regbank 8 ];
            sp_random_cells = 100 + (seed * 13 mod 60);
            sp_utilization = 0.6;
          }
      in
      match Dpp_check.bookshelf_roundtrip d with
      | [] -> ()
      | vs ->
        Alcotest.failf "seed %d: %s" seed
          (String.concat "; " (Dpp_check.Violation.strings vs)))
    [ 3; 5; 7 ]

(* Degenerate corners the writer and reader must both survive: fixed
   blockers, single-pin nets, coincident pin offsets.  (Unconnected pins
   are not representable in Bookshelf; the oracle excludes them.) *)
let test_roundtrip_adversarial () =
  let single_pin = ref false in
  List.iter
    (fun seed ->
      let d = Dpp_core.Fuzz.random_design ~seed ~cells:60 ~nets:20 in
      if Array.exists (fun (n : Types.net) -> Array.length n.Types.n_pins = 1) d.Design.nets
      then single_pin := true;
      match Dpp_check.bookshelf_roundtrip d with
      | [] -> ()
      | vs ->
        Alcotest.failf "seed %d: %s" seed
          (String.concat "; " (Dpp_check.Violation.strings vs)))
    [ 1; 2; 3; 4; 5 ];
  Alcotest.(check bool) "the sweep covered a single-pin net" true !single_pin

let test_missing_file () =
  Alcotest.(check bool) "missing aux raises" true
    (try
       ignore (Bookshelf.read ~basename:"/nonexistent/foo");
       false
     with Sys_error _ | Bookshelf.Parse_error _ -> true)

let test_malformed () =
  let path = Filename.temp_file "dpp_badaux" ".aux" in
  let oc = open_out path in
  output_string oc "complete nonsense\n";
  close_out oc;
  let base = Filename.chop_suffix path ".aux" in
  let result =
    try
      ignore (Bookshelf.read ~basename:base);
      false
    with Bookshelf.Parse_error _ -> true
  in
  Sys.remove path;
  Alcotest.(check bool) "malformed aux raises Parse_error" true result

(* Tab separators, CRLF line ends, ':' glued to its neighbours, indented
   '#' comments and tab-only lines: the tokenizer's rules, pinned on every
   file a design is written to (the line-1 "UCLA" header stays first). *)
let test_tokenizer_quirks () =
  let d = Dpp_gen.Compose.build small_spec in
  Array.iteri
    (fun k i -> Design.set_center d i (10.0 +. float_of_int k) 15.0)
    (Design.movable_ids d);
  with_written d (fun base ->
      let clean = Bookshelf.read ~basename:base in
      List.iter
        (fun ext ->
          let path = base ^ ext in
          let quirky i l =
            let l = String.concat ":" (List.map String.trim (String.split_on_char ':' l)) in
            let l = if i mod 2 = 1 then String.map (fun c -> if c = ' ' then '\t' else c) l else l in
            (l ^ "\r")
            :: (if i mod 2 = 0 then [ "   # an indented comment : with a colon\r" ] else [ "\t\t" ])
          in
          write_lines path (List.concat (List.mapi quirky (read_lines path))))
        [ ".aux"; ".nodes"; ".nets"; ".pl"; ".scl"; ".masters"; ".groups" ];
      Alcotest.(check bool) "the quirks reached the files" true
        (List.exists (String.starts_with ~prefix:"NumNodes:") (read_lines (base ^ ".nodes")));
      let d' = Bookshelf.read ~basename:base in
      Alcotest.(check bool) "cells" true (clean.Design.cells = d'.Design.cells);
      Alcotest.(check bool) "pins" true (clean.Design.pins = d'.Design.pins);
      Alcotest.(check bool) "nets" true (clean.Design.nets = d'.Design.nets);
      Alcotest.(check bool) "positions" true
        (clean.Design.x = d'.Design.x && clean.Design.y = d'.Design.y
        && clean.Design.orient = d'.Design.orient);
      Alcotest.(check bool) "groups" true (clean.Design.groups = d'.Design.groups);
      Alcotest.(check bool) "rows and die" true
        (clean.Design.die = d'.Design.die && clean.Design.num_rows = d'.Design.num_rows))

(* Two movable cells on one net, in one 1x2 group. *)
let tiny_design () =
  let b =
    Builder.create ~name:"tiny"
      ~die:(Dpp_geom.Rect.make ~xl:0.0 ~yl:0.0 ~xh:40.0 ~yh:20.0)
      ~row_height:10.0 ~site_width:1.0 ()
  in
  let cell name = Builder.add_cell b ~name ~master:"INV" ~w:2.0 ~h:10.0 ~kind:Types.Movable in
  let a = cell "a" and c = cell "c" in
  let pa = Builder.add_pin b ~cell:a ~dir:Types.Output () in
  let pc = Builder.add_pin b ~cell:c ~dir:Types.Input () in
  ignore (Builder.add_net b ~name:"n0" [ pa; pc ]);
  Builder.add_group b (Groups.make "g0" [| [| a; c |] |]);
  Builder.finish b

(* Replace the first line of the [ext] file that starts with [prefix] by
   [by]: reading must raise [Parse_error] naming that file and line. *)
let expect_parse_error ~ext ~prefix ~by () =
  with_written (tiny_design ()) (fun base ->
      let path = base ^ ext in
      let lines = read_lines path in
      let line = ref 0 in
      write_lines path
        (List.mapi
           (fun i l ->
             if !line = 0 && String.starts_with ~prefix l then begin
               line := i + 1;
               by
             end
             else l)
           lines);
      if !line = 0 then Alcotest.failf "%s has no line starting with %S" ext prefix;
      let want = Printf.sprintf "%s:%d: " path !line in
      match Bookshelf.read ~basename:base with
      | _ -> Alcotest.failf "read accepted %S in %s" by ext
      | exception Bookshelf.Parse_error msg ->
        if not (String.starts_with ~prefix:want msg) then
          Alcotest.failf "message %S does not start with %S" msg want)

let malformed =
  [
    "duplicate node name", ".nodes", "  c ", "  a 2.0000 10.0000";
    "movable node of width 0", ".nodes", "  a ", "  a 0 10.0000";
    "Sitewidth 0", ".scl", "  Sitewidth", "  Sitewidth : 0";
    "group of 0 slices", ".groups", "Group", "Group g 0 1";
    "nan coordinate", ".pl", "a ", "a nan 0.0000 : N";
    "inf coordinate", ".pl", "c ", "c 10.0000 inf : N";
    "net of degree 0", ".nets", "NetDegree", "NetDegree : 0  n0";
    "group with an unknown cell", ".groups", "  ", "  a zz";
  ]

(* Rows whose extent overflows: the die the Builder rejects is reported
   against the .scl file. *)
let test_rows_past_float_range () =
  with_written (tiny_design ()) (fun base ->
      let path = base ^ ".scl" in
      write_lines path
        (List.map
           (fun l -> if String.starts_with ~prefix:"  Height" l then "  Height : 1e308" else l)
           (read_lines path));
      match Bookshelf.read ~basename:base with
      | _ -> Alcotest.fail "read accepted rows of height 1e308"
      | exception Bookshelf.Parse_error msg ->
        if not (String.starts_with ~prefix:(path ^ ": ") msg) then
          Alcotest.failf "message %S does not name %s" msg path)

(* Two pads of width 0 on rows without NumSites: the die-width fallback
   (four times the widest node) gives 0, which the reader rejects against
   the .scl file instead of handing the flow a zero-width die. *)
let test_zero_width_die () =
  let b =
    Builder.create ~name:"pads"
      ~die:(Dpp_geom.Rect.make ~xl:0.0 ~yl:0.0 ~xh:40.0 ~yh:10.0)
      ~row_height:10.0 ~site_width:1.0 ()
  in
  let pad name = Builder.add_cell b ~name ~master:"PAD" ~w:0.0 ~h:0.0 ~kind:Types.Pad in
  let p = pad "p0" and q = pad "p1" in
  let pp = Builder.add_pin b ~cell:p ~dir:Types.Output () in
  let pq = Builder.add_pin b ~cell:q ~dir:Types.Input () in
  ignore (Builder.add_net b ~name:"n0" [ pp; pq ]);
  with_written (Builder.finish b) (fun base ->
      let path = base ^ ".scl" in
      write_lines path
        (List.map
           (fun l ->
             match String.index_opt l 'N' with
             | Some i when String.starts_with ~prefix:"  SubrowOrigin" l -> String.sub l 0 i
             | _ -> l)
           (read_lines path));
      Alcotest.(check bool) "NumSites is gone" false
        (List.exists
           (fun l -> String.starts_with ~prefix:"  SubrowOrigin" l && String.contains l 'N')
           (read_lines path));
      match Bookshelf.read ~basename:base with
      | d -> Alcotest.failf "read accepted a die of width %g" (Dpp_geom.Rect.width d.Design.die)
      | exception Bookshelf.Parse_error msg ->
        if not (String.starts_with ~prefix:(path ^ ": ") msg) then
          Alcotest.failf "message %S does not name %s" msg path)

let movable_names k = List.init k (Printf.sprintf "m%d")

let numbers_design k =
  let b =
    Builder.create ~name:"nums"
      ~die:(Dpp_geom.Rect.make ~xl:0.0 ~yl:0.0 ~xh:400.0 ~yh:20.0)
      ~row_height:10.0 ~site_width:1.0 ()
  in
  List.iter
    (fun name -> ignore (Builder.add_cell b ~name ~master:"INV" ~w:2.0 ~h:10.0 ~kind:Types.Movable))
    (movable_names k);
  Builder.finish b

(* A design of movable cells whose .pl coordinates are [toks], two per
   line (an odd count repeats the last token), read back: each coordinate
   must carry exactly the bits [float_of_string] gives its token. *)
let check_numbers toks =
  let toks = Array.of_list toks in
  let k = (Array.length toks + 1) / 2 in
  with_written (numbers_design k) (fun base ->
      let tok i = toks.(min i (Array.length toks - 1)) in
      write_lines (base ^ ".pl")
        ("UCLA pl 1.0"
        :: List.mapi
             (fun c name -> Printf.sprintf "%s %s %s : N" name (tok (2 * c)) (tok ((2 * c) + 1)))
             (movable_names k));
      let d = Bookshelf.read ~basename:base in
      let same tok v =
        Int64.equal (Int64.bits_of_float v) (Int64.bits_of_float (float_of_string tok))
      in
      List.iteri
        (fun c _ ->
          if not (same (tok (2 * c)) d.Design.x.(c) && same (tok ((2 * c) + 1)) d.Design.y.(c)) then
            Alcotest.failf "%s %s read as %h %h" (tok (2 * c)) (tok ((2 * c) + 1)) d.Design.x.(c)
              d.Design.y.(c))
        (movable_names k);
      true)

let test_number_cases () =
  ignore (check_numbers [ "1e3"; "1_0.5"; "0x1p3"; ".5"; "5."; "-0.0000"; "+2"; "-.25"; "007" ])

(* A sign, leading zeros, 1-20 significant digits and 0-25 fraction
   digits: both sides of the exact fast path (at most 15 significant and
   22 fraction digits) and the [float_of_string] fallback past it. *)
let prop_numbers_read_exactly =
  let token =
    QCheck.Gen.(
      let* sign = oneofl [ ""; "-"; "+" ] in
      let* zeros = int_range 0 3 in
      let* first = int_range 1 9 in
      let* rest = list_size (int_range 0 19) (int_range 0 9) in
      let+ frac = int_range 0 25 in
      let m =
        String.make zeros '0' ^ string_of_int first ^ String.concat "" (List.map string_of_int rest)
      in
      let n = String.length m in
      sign
      ^
      if frac = 0 then m
      else if frac <= n then String.sub m 0 (n - frac) ^ "." ^ String.sub m (n - frac) frac
      else "0." ^ String.make (frac - n) '0' ^ m)
  in
  QCheck.Test.make ~name:"numbers read to float_of_string's bits" ~count:100
    (QCheck.make ~print:(String.concat " ") QCheck.Gen.(list_size (return 60) token))
    check_numbers

(* A .groups row longer than the 64 KiB refill buffer: cells with 30000-
   character names, so the one row is ~90 KiB. *)
let test_long_group_row () =
  let b =
    Builder.create ~name:"long"
      ~die:(Dpp_geom.Rect.make ~xl:0.0 ~yl:0.0 ~xh:40.0 ~yh:20.0)
      ~row_height:10.0 ~site_width:1.0 ()
  in
  let cell k =
    Builder.add_cell b ~name:(String.make 30_000 (Char.chr (Char.code 'a' + k))) ~master:"INV"
      ~w:2.0 ~h:10.0 ~kind:Types.Movable
  in
  let cells = Array.init 3 cell in
  Builder.add_group b (Groups.make "g0" [| cells |]);
  let d = Builder.finish b in
  with_written d (fun base ->
      Alcotest.(check bool) "the row is longer than the buffer" true
        (List.exists (fun l -> String.length l > 65536) (read_lines (base ^ ".groups")));
      let d' = Bookshelf.read ~basename:base in
      Alcotest.(check bool) "cells" true (d.Design.cells = d'.Design.cells);
      Alcotest.(check bool) "groups" true (d.Design.groups = d'.Design.groups))

(* Every file without the newline after its last line, then with CR as
   the only separator inside each line: both read as the clean files. *)
let test_line_ends () =
  let d = Dpp_gen.Compose.build small_spec in
  with_written d (fun base ->
      let clean = Bookshelf.read ~basename:base in
      let same label (d' : Design.t) =
        Alcotest.(check bool) label true
          (clean.Design.cells = d'.Design.cells && clean.Design.pins = d'.Design.pins
          && clean.Design.nets = d'.Design.nets && clean.Design.x = d'.Design.x
          && clean.Design.y = d'.Design.y && clean.Design.groups = d'.Design.groups
          && clean.Design.die = d'.Design.die)
      in
      let exts = [ ".aux"; ".nodes"; ".nets"; ".pl"; ".scl"; ".masters"; ".groups" ] in
      List.iter
        (fun ext ->
          let path = base ^ ext in
          let text = In_channel.with_open_bin path In_channel.input_all in
          Out_channel.with_open_bin path (fun oc ->
              output_string oc (String.sub text 0 (String.length text - 1))))
        exts;
      same "no final newline" (Bookshelf.read ~basename:base);
      List.iter
        (fun ext ->
          let path = base ^ ext in
          write_lines path
            (List.map (String.map (fun c -> if c = ' ' then '\r' else c)) (read_lines path)))
        exts;
      Alcotest.(check bool) "CR separates the tokens" true
        (List.exists (String.starts_with ~prefix:"NumNodes\r:\r") (read_lines (base ^ ".nodes")));
      same "CR-only separators" (Bookshelf.read ~basename:base))

(* Words the reader allocates per pin (minor + major - promoted) on the
   generator's xl10k.  The count repeats exactly for a given binary.  The
   bound is ~1.5x what a reader that lexes in place into a flat Builder
   measures (108.5); one that allocates a string per line and per token
   and a record per staged entity measures ~256. *)
let test_read_allocation () =
  let d = Option.get (Dpp_gen.Xl.by_name "xl10k") in
  with_written d (fun base ->
      let words () =
        let s = Gc.quick_stat () in
        s.Gc.minor_words +. s.Gc.major_words -. s.Gc.promoted_words
      in
      let w0 = words () in
      let d' = Bookshelf.read ~basename:base in
      let per_pin = (words () -. w0) /. float_of_int (Design.num_pins d') in
      if per_pin > 160.0 then
        Alcotest.failf "read allocates %.1f words per pin (bound 160)" per_pin)

let suite =
  [
    Alcotest.test_case "roundtrip counts" `Quick test_roundtrip_counts;
    Alcotest.test_case "roundtrip cells" `Quick test_roundtrip_cells;
    Alcotest.test_case "roundtrip positions" `Quick test_roundtrip_positions;
    Alcotest.test_case "roundtrip nets" `Quick test_roundtrip_net_structure;
    Alcotest.test_case "roundtrip groups" `Quick test_roundtrip_groups;
    Alcotest.test_case "roundtrip validates" `Quick test_roundtrip_validates;
    Alcotest.test_case "roundtrip property (macros)" `Quick test_roundtrip_property;
    Alcotest.test_case "roundtrip adversarial corners" `Quick test_roundtrip_adversarial;
    Alcotest.test_case "missing file" `Quick test_missing_file;
    Alcotest.test_case "malformed aux" `Quick test_malformed;
    Alcotest.test_case "tokenizer quirks" `Quick test_tokenizer_quirks;
    Alcotest.test_case "malformed: rows past the float range" `Quick test_rows_past_float_range;
  ]
  @ List.map
      (fun (name, ext, prefix, by) ->
        Alcotest.test_case ("malformed: " ^ name) `Quick (expect_parse_error ~ext ~prefix ~by))
      malformed
  @ [
      Alcotest.test_case "malformed: zero-width die" `Quick test_zero_width_die;
      Alcotest.test_case "number cases" `Quick test_number_cases;
      QCheck_alcotest.to_alcotest ~rand:(Random.State.make [| 17 |]) prop_numbers_read_exactly;
      Alcotest.test_case "group row past the buffer" `Quick test_long_group_row;
      Alcotest.test_case "line ends" `Quick test_line_ends;
      Alcotest.test_case "read allocation" `Quick test_read_allocation;
    ]
