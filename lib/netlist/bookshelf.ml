module Rect = Dpp_geom.Rect
module Orient = Dpp_geom.Orient

exception Parse_error of string

let parse_error file line fmt =
  Printf.ksprintf (fun msg -> raise (Parse_error (Printf.sprintf "%s:%d: %s" file line msg))) fmt

(* ------------------------------------------------------------------ *)
(* Writing                                                            *)
(* ------------------------------------------------------------------ *)

let with_out path f =
  let oc = open_out path in
  Fun.protect ~finally:(fun () -> close_out oc) (fun () -> f oc)

let write_nodes (d : Design.t) path =
  with_out path (fun oc ->
      Printf.fprintf oc "UCLA nodes 1.0\n\n";
      let terminals =
        Array.fold_left
          (fun n (c : Types.cell) -> if Types.is_fixed_kind c.c_kind then n + 1 else n)
          0 d.Design.cells
      in
      Printf.fprintf oc "NumNodes : %d\n" (Design.num_cells d);
      Printf.fprintf oc "NumTerminals : %d\n" terminals;
      Array.iter
        (fun (c : Types.cell) ->
          (* ISPD convention: [terminal_NI] is a terminal that does not
             block placement — exactly our [Pad] kind, so the kind
             round-trips instead of collapsing into [Fixed]. *)
          let term =
            match c.c_kind with
            | Types.Pad -> " terminal_NI"
            | Types.Fixed -> " terminal"
            | Types.Movable -> ""
          in
          Printf.fprintf oc "  %s %.4f %.4f%s\n" c.c_name c.c_width c.c_height term)
        d.Design.cells)

let write_nets (d : Design.t) path =
  with_out path (fun oc ->
      Printf.fprintf oc "UCLA nets 1.0\n\n";
      Printf.fprintf oc "NumNets : %d\n" (Design.num_nets d);
      Printf.fprintf oc "NumPins : %d\n" (Design.num_pins d);
      Array.iter
        (fun (n : Types.net) ->
          Printf.fprintf oc "NetDegree : %d  %s\n" (Array.length n.n_pins) n.n_name;
          Array.iter
            (fun pid ->
              let p = Design.pin d pid in
              let c = Design.cell d p.p_cell in
              (* Bookshelf offsets are from the cell center. *)
              let dx = p.p_dx -. (c.c_width /. 2.0) in
              let dy = p.p_dy -. (c.c_height /. 2.0) in
              Printf.fprintf oc "  %s %s : %.4f %.4f\n" c.c_name
                (Types.direction_to_string p.p_dir)
                dx dy)
            n.n_pins)
        d.Design.nets)

let write_pl (d : Design.t) path =
  with_out path (fun oc ->
      Printf.fprintf oc "UCLA pl 1.0\n\n";
      Array.iter
        (fun (c : Types.cell) ->
          let i = c.Types.c_id in
          let fixed = if Types.is_fixed_kind c.c_kind then " /FIXED" else "" in
          Printf.fprintf oc "%s %.4f %.4f : %s%s\n" c.c_name d.Design.x.(i) d.Design.y.(i)
            (Orient.to_string d.Design.orient.(i))
            fixed)
        d.Design.cells)

let write_scl (d : Design.t) path =
  with_out path (fun oc ->
      Printf.fprintf oc "UCLA scl 1.0\n\n";
      Printf.fprintf oc "NumRows : %d\n\n" d.Design.num_rows;
      let die = d.Design.die in
      let sites =
        int_of_float (Float.round (Rect.width die /. d.Design.site_width))
      in
      for r = 0 to d.Design.num_rows - 1 do
        Printf.fprintf oc "CoreRow Horizontal\n";
        Printf.fprintf oc "  Coordinate : %.4f\n" (Design.row_y d r);
        Printf.fprintf oc "  Height : %.4f\n" d.Design.row_height;
        Printf.fprintf oc "  Sitewidth : %.4f\n" d.Design.site_width;
        Printf.fprintf oc "  Sitespacing : %.4f\n" d.Design.site_width;
        Printf.fprintf oc "  Siteorient : 1\n";
        Printf.fprintf oc "  Sitesymmetry : 1\n";
        Printf.fprintf oc "  SubrowOrigin : %.4f  NumSites : %d\n" die.Rect.xl sites;
        Printf.fprintf oc "End\n"
      done)

let write_masters (d : Design.t) path =
  with_out path (fun oc ->
      Array.iter
        (fun (c : Types.cell) -> Printf.fprintf oc "%s %s\n" c.c_name c.c_master)
        d.Design.cells)

let write_groups (d : Design.t) path =
  with_out path (fun oc ->
      List.iter
        (fun g ->
          Printf.fprintf oc "Group %s %d %d\n" g.Groups.g_name (Groups.num_slices g)
            (Groups.num_stages g);
          Array.iter
            (fun row ->
              output_char oc ' ';
              Array.iter
                (fun c ->
                  output_char oc ' ';
                  output_string oc
                    (if c < 0 then "-" else (Design.cell d c).Types.c_name))
                row;
              output_char oc '\n')
            g.Groups.g_rows)
        d.Design.groups)

let write (d : Design.t) ~basename =
  let b = Filename.basename basename in
  write_nodes d (basename ^ ".nodes");
  write_nets d (basename ^ ".nets");
  write_pl d (basename ^ ".pl");
  write_scl d (basename ^ ".scl");
  write_masters d (basename ^ ".masters");
  if d.Design.groups <> [] then write_groups d (basename ^ ".groups");
  with_out (basename ^ ".aux") (fun oc ->
      let groups_file = if d.Design.groups <> [] then " " ^ b ^ ".groups" else "" in
      Printf.fprintf oc "RowBasedPlacement : %s.nodes %s.nets %s.pl %s.scl %s.masters%s\n" b b b
        b b groups_file)

(* ------------------------------------------------------------------ *)
(* Reading                                                            *)
(* ------------------------------------------------------------------ *)

type line_reader = { lr_file : string; mutable lr_num : int; lr_ic : in_channel }

let open_reader path = { lr_file = path; lr_num = 0; lr_ic = open_in path }

let next_line lr =
  match In_channel.input_line lr.lr_ic with
  | None -> None
  | Some l ->
    lr.lr_num <- lr.lr_num + 1;
    Some l

(* A comment line's first character past [String.trim]'s whitespace is '#'. *)
let is_comment l =
  let n = String.length l in
  let rec go i =
    i < n && match l.[i] with ' ' | '\012' | '\n' | '\r' | '\t' -> go (i + 1) | c -> c = '#'
  in
  go 0

(* One right-to-left scan: the tokens are the maximal runs of characters
   other than space, tab, CR and ':', and each ':' is a token of its own. *)
let tokens l =
  let acc = ref [] and stop = ref (String.length l) in
  for i = String.length l - 1 downto 0 do
    match l.[i] with
    | (' ' | '\t' | '\r' | ':') as c ->
      if !stop > i + 1 then acc := String.sub l (i + 1) (!stop - i - 1) :: !acc;
      if c = ':' then acc := ":" :: !acc;
      stop := i
    | _ -> ()
  done;
  if !stop > 0 then String.sub l 0 !stop :: !acc else !acc

(* Next meaningful line as tokens: comments, blank lines and a line-1
   "UCLA" header are skipped. *)
let rec next_tokens lr =
  match next_line lr with
  | None -> None
  | Some l when is_comment l -> next_tokens lr
  | Some l when lr.lr_num = 1 && String.starts_with ~prefix:"UCLA" l -> next_tokens lr
  | Some l -> ( match tokens l with [] -> next_tokens lr | toks -> Some toks)

let float_tok lr s =
  match float_of_string_opt s with
  | Some f when Float.is_finite f -> f
  | Some _ | None -> parse_error lr.lr_file lr.lr_num "expected a finite number, got %S" s

let int_tok lr s =
  match int_of_string_opt s with
  | Some i -> i
  | None -> parse_error lr.lr_file lr.lr_num "expected an integer, got %S" s

let with_reader path f =
  let lr = open_reader path in
  Fun.protect ~finally:(fun () -> close_in lr.lr_ic) (fun () -> f lr)

(* The reader streams every per-cell / per-pin file straight into the
   Builder: no whole-file [raw_node array] or [raw_net array] is ever
   materialized, so a 1M-cell design parses with O(1) transient memory on
   top of the Builder's own storage.  The price is two passes over [.pl]
   (the cell kind must be known at [add_cell] time, so pass 1 collects just
   the /FIXED name set — O(#fixed), typically pads and macros only — and
   pass 2 re-streams positions through [Builder.cell_id]). *)

(* Pass 1 over [.pl]: which cells are marked /FIXED. *)
let read_fixed_names path =
  with_reader path (fun lr ->
      let tbl = Hashtbl.create 64 in
      let rec loop () =
        match next_tokens lr with
        | None -> ()
        | Some (name :: _x :: _y :: ":" :: _o :: rest) ->
          if List.mem "/FIXED" rest then Hashtbl.replace tbl name ();
          loop ()
        | Some toks -> parse_error lr.lr_file lr.lr_num "bad pl line: %s" (String.concat " " toks)
      in
      loop ();
      tbl)

(* Pass 2 over [.pl]: apply position/orientation to already-added cells. *)
let stream_pl path b =
  with_reader path (fun lr ->
      let rec loop () =
        match next_tokens lr with
        | None -> ()
        | Some (name :: x :: y :: ":" :: o :: _rest) ->
          let orient =
            match Orient.of_string o with
            | Some o -> o
            | None -> parse_error lr.lr_file lr.lr_num "bad orientation %S" o
          in
          (match Builder.cell_id b name with
          | Some id ->
            Builder.set_position b id ~x:(float_tok lr x) ~y:(float_tok lr y);
            Builder.set_orient b id orient
          | None -> ());
          loop ()
        | Some toks -> parse_error lr.lr_file lr.lr_num "bad pl line: %s" (String.concat " " toks)
      in
      loop ())

(* Streaming pre-scan used only when the .scl carries no NumSites (the
   die-width fallback needs the widest node). *)
let scan_max_node_width path =
  with_reader path (fun lr ->
      let m = ref 0.0 in
      let rec loop () =
        match next_tokens lr with
        | None -> ()
        | Some [ "NumNodes"; ":"; _ ] | Some [ "NumTerminals"; ":"; _ ] -> loop ()
        | Some (_name :: w :: _h :: _rest) ->
          m := max !m (float_tok lr w);
          loop ()
        | Some toks ->
          parse_error lr.lr_file lr.lr_num "bad node line: %s" (String.concat " " toks)
      in
      loop ();
      !m)

let stream_nodes path b ~fixed_names ~masters =
  with_reader path (fun lr ->
      let rec loop () =
        match next_tokens lr with
        | None -> ()
        | Some [ "NumNodes"; ":"; _ ] | Some [ "NumTerminals"; ":"; _ ] -> loop ()
        | Some (name :: w :: h :: rest) ->
          if Option.is_some (Builder.cell_id b name) then
            parse_error lr.lr_file lr.lr_num "duplicate node %s" name;
          let terminal = List.mem "terminal" rest in
          let terminal_ni = List.mem "terminal_NI" rest in
          let w = float_tok lr w and h = float_tok lr h in
          let kind =
            (* [terminal_NI] is a non-blocking terminal -> Pad exactly;
               a plain [terminal] (or /FIXED in the .pl) is Fixed unless
               it has no area, the usual pad encoding in foreign
               benchmarks. *)
            if terminal_ni then Types.Pad
            else if terminal || Hashtbl.mem fixed_names name then
              if w *. h <= 1e-9 then Types.Pad else Types.Fixed
            else Types.Movable
          in
          if kind = Types.Movable && (w <= 0.0 || h <= 0.0) then
            parse_error lr.lr_file lr.lr_num "movable node %s has size %g x %g" name w h;
          let master =
            match Hashtbl.find_opt masters name with Some m -> m | None -> "UNKNOWN"
          in
          ignore (Builder.add_cell b ~name ~master ~w ~h ~kind);
          loop ()
        | Some toks ->
          parse_error lr.lr_file lr.lr_num "bad node line: %s" (String.concat " " toks)
      in
      loop ())

let stream_nets path b =
  with_reader path (fun lr ->
      let current_name = ref "" in
      let current_pins = ref [] in
      let current_left = ref 0 in
      let flush () =
        if !current_name <> "" then begin
          if !current_left <> 0 then
            parse_error lr.lr_file lr.lr_num "net %s: wrong pin count" !current_name;
          ignore (Builder.add_net b ~name:!current_name (List.rev !current_pins));
          current_name := "";
          current_pins := []
        end
      in
      let start_net name k =
        let k = int_tok lr k in
        if k < 1 then parse_error lr.lr_file lr.lr_num "net %s: degree %d" name k;
        current_name := name;
        current_left := k
      in
      let rec loop () =
        match next_tokens lr with
        | None -> flush ()
        | Some [ "NumNets"; ":"; _ ] | Some [ "NumPins"; ":"; _ ] -> loop ()
        | Some [ "NetDegree"; ":"; k; name ] ->
          flush ();
          start_net name k;
          loop ()
        | Some [ "NetDegree"; ":"; k ] ->
          flush ();
          start_net (Printf.sprintf "n%d" (Builder.num_nets b)) k;
          loop ()
        | Some [ cell; dir; ":"; dx; dy ] when !current_name <> "" ->
          let d =
            match Types.direction_of_string dir with
            | Some d -> d
            | None -> parse_error lr.lr_file lr.lr_num "bad pin direction %S" dir
          in
          (match Builder.cell_id b cell with
          | None -> parse_error lr.lr_file lr.lr_num "net %s: unknown cell %s" !current_name cell
          | Some cid ->
            let cw, ch = Builder.cell_dims b cid in
            (* center-relative -> lower-left-relative *)
            let dx = float_tok lr dx +. (cw /. 2.0) in
            let dy = float_tok lr dy +. (ch /. 2.0) in
            current_pins := Builder.add_pin b ~cell:cid ~dir:d ~dx ~dy () :: !current_pins);
          decr current_left;
          loop ()
        | Some toks ->
          parse_error lr.lr_file lr.lr_num "bad nets line: %s" (String.concat " " toks)
      in
      loop ())

type raw_rows = {
  rr_count : int;
  rr_y0 : float;
  rr_height : float;
  rr_site_width : float;
  rr_x0 : float;
  rr_sites : int;
}

let read_scl path =
  with_reader path (fun lr ->
      let count = ref 0 in
      let y0 = ref infinity in
      let height = ref 0.0 in
      let site_width = ref 1.0 in
      let x0 = ref 0.0 in
      let sites = ref 0 in
      let rec loop () =
        match next_tokens lr with
        | None -> ()
        | Some [ "NumRows"; ":"; _ ] -> loop ()
        | Some [ "CoreRow"; "Horizontal" ] ->
          incr count;
          loop ()
        | Some [ "Coordinate"; ":"; y ] ->
          y0 := min !y0 (float_tok lr y);
          loop ()
        | Some [ "Height"; ":"; h ] ->
          height := float_tok lr h;
          loop ()
        | Some [ "Sitewidth"; ":"; w ] ->
          site_width := float_tok lr w;
          if !site_width <= 0.0 then
            parse_error lr.lr_file lr.lr_num "Sitewidth must be positive, got %g" !site_width;
          loop ()
        | Some [ "SubrowOrigin"; ":"; x; "NumSites"; ":"; n ] ->
          x0 := float_tok lr x;
          sites := max !sites (int_tok lr n);
          loop ()
        | Some _ -> loop ()
      in
      loop ();
      if !count = 0 || !height <= 0.0 || !y0 = infinity then
        parse_error lr.lr_file lr.lr_num "scl file defines no usable rows";
      {
        rr_count = !count;
        rr_y0 = !y0;
        rr_height = !height;
        rr_site_width = !site_width;
        rr_x0 = !x0;
        rr_sites = !sites;
      })

let read_masters path =
  with_reader path (fun lr ->
      let tbl = Hashtbl.create 1024 in
      (* the tokenizer allocates a fresh string per line, so a million
         cells of "ram1" would otherwise pin a million identical blocks *)
      let pool = Dpp_util.Strpool.create () in
      let rec loop () =
        match next_tokens lr with
        | None -> ()
        | Some [ name; master ] ->
          Hashtbl.replace tbl name (Dpp_util.Strpool.intern pool master);
          loop ()
        | Some toks ->
          parse_error lr.lr_file lr.lr_num "bad masters line: %s" (String.concat " " toks)
      in
      loop ();
      tbl)

(* Group rows name their cells, so this runs once the nodes are in [b]. *)
let stream_groups path b =
  with_reader path (fun lr ->
      let read_row name stages =
        match next_tokens lr with
        | None -> parse_error lr.lr_file lr.lr_num "group %s: truncated" name
        | Some toks ->
          if List.length toks <> stages then
            parse_error lr.lr_file lr.lr_num "group %s: bad row width" name;
          Array.of_list
            (List.map
               (fun cname ->
                 if cname = "-" then -1
                 else
                   match Builder.cell_id b cname with
                   | Some id -> id
                   | None -> parse_error lr.lr_file lr.lr_num "group %s: unknown cell %s" name cname)
               toks)
      in
      let rec loop () =
        match next_tokens lr with
        | None -> ()
        | Some [ "Group"; name; slices; stages ] ->
          let slices = int_tok lr slices and stages = int_tok lr stages in
          if slices < 1 || stages < 1 then
            parse_error lr.lr_file lr.lr_num "group %s: %d slices x %d stages" name slices stages;
          Builder.add_group b (Groups.make name (Array.init slices (fun _ -> read_row name stages)));
          loop ()
        | Some toks ->
          parse_error lr.lr_file lr.lr_num "bad groups line: %s" (String.concat " " toks)
      in
      loop ())

let read ~basename =
  let dir = Filename.dirname basename in
  let aux_path = basename ^ ".aux" in
  let files =
    with_reader aux_path (fun lr ->
        match next_tokens lr with
        | Some (_ :: ":" :: files) -> files
        | _ -> parse_error lr.lr_file lr.lr_num "bad aux file")
  in
  let find_ext ext =
    List.find_opt (fun f -> Filename.check_suffix f ext) files
    |> Option.map (fun f -> Filename.concat dir f)
  in
  let require ext =
    match find_ext ext with
    | Some f -> f
    | None -> raise (Parse_error (Printf.sprintf "%s: missing %s entry" aux_path ext))
  in
  let nodes_path = require ".nodes" in
  let nets_path = require ".nets" in
  let pl_path = require ".pl" in
  let scl_path = require ".scl" in
  let rows = read_scl scl_path in
  let masters =
    match find_ext ".masters" with Some f -> read_masters f | None -> Hashtbl.create 0
  in
  let die_w =
    if rows.rr_sites > 0 then float_of_int rows.rr_sites *. rows.rr_site_width
    else
      (* Fall back to the extent of the placement. *)
      scan_max_node_width nodes_path *. 4.0
  in
  let die =
    Rect.make ~xl:rows.rr_x0 ~yl:rows.rr_y0 ~xh:(rows.rr_x0 +. die_w)
      ~yh:(rows.rr_y0 +. (float_of_int rows.rr_count *. rows.rr_height))
  in
  let b =
    (* the Builder checks that the rows tile the die; rows it rejects (an
       extent past the float range or lost to rounding) are malformed *)
    try
      Builder.create ~name:(Filename.basename basename) ~die ~row_height:rows.rr_height
        ~site_width:rows.rr_site_width ()
    with Invalid_argument msg -> raise (Parse_error (Printf.sprintf "%s: %s" scl_path msg))
  in
  let fixed_names = read_fixed_names pl_path in
  stream_nodes nodes_path b ~fixed_names ~masters;
  stream_pl pl_path b;
  stream_nets nets_path b;
  Option.iter (fun f -> stream_groups f b) (find_ext ".groups");
  Builder.finish b
