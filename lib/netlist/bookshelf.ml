module Rect = Dpp_geom.Rect
module Orient = Dpp_geom.Orient
module Dyn = Dpp_util.Dyn
module Nametab = Dpp_util.Nametab

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

(* A lexer scans one file through a single refillable byte buffer, grown
   to fit the longest line.  [next] finds the next meaningful line and
   records its tokens as offsets into the buffer, valid until the next
   call: keywords are compared in place, and only the names the design
   keeps are copied out into strings. *)
type lexer = {
  lx_file : string;
  lx_ic : in_channel;
  mutable buf : Bytes.t;
  mutable lo : int;  (* start of the data not yet split into lines *)
  mutable hi : int;  (* end of the data read so far *)
  mutable eof : bool;
  mutable num : int;  (* number of the current line *)
  mutable ls : int;  (* the current line is [buf.[ls .. le - 1]] *)
  mutable le : int;
  mutable ts : int array;  (* token [k] is [buf.[ts.(k) .. te.(k) - 1]] *)
  mutable te : int array;
  mutable nt : int;
}

let buffer_size = 65536

let fail lx fmt = parse_error lx.lx_file lx.num fmt

(* Move the unsplit data to the front, doubling the buffer when one line
   fills it, and read more. *)
let refill lx =
  let len = lx.hi - lx.lo in
  if len = Bytes.length lx.buf then begin
    let b = Bytes.create (2 * len) in
    Bytes.blit lx.buf lx.lo b 0 len;
    lx.buf <- b
  end
  else Bytes.blit lx.buf lx.lo lx.buf 0 len;
  lx.lo <- 0;
  let n = input lx.lx_ic lx.buf len (Bytes.length lx.buf - len) in
  if n = 0 then lx.eof <- true;
  lx.hi <- len + n

let push_token lx s e =
  if lx.nt = Array.length lx.ts then begin
    lx.ts <- Array.append lx.ts lx.ts;
    lx.te <- Array.append lx.te lx.te
  end;
  lx.ts.(lx.nt) <- s;
  lx.te.(lx.nt) <- e;
  lx.nt <- lx.nt + 1

(* Split the next line into tokens in one scan up to its '\n' (or the
   end of the file): the maximal runs of characters other than space,
   tab, CR and ':', with each ':' a token of its own.  A line that runs
   past the data read so far is scanned again after a refill.  False at
   the end of the file. *)
let rec next_line lx =
  let buf = lx.buf and hi = lx.hi in
  let i = ref lx.lo in
  lx.nt <- 0;
  while !i < hi && Bytes.unsafe_get buf !i <> '\n' do
    match Bytes.unsafe_get buf !i with
    | ' ' | '\t' | '\r' -> incr i
    | ':' ->
      push_token lx !i (!i + 1);
      incr i
    | _ ->
      let s = !i in
      while
        !i < hi
        && match Bytes.unsafe_get buf !i with ' ' | '\t' | '\r' | ':' | '\n' -> false | _ -> true
      do
        incr i
      done;
      push_token lx s !i
  done;
  if !i = hi && not lx.eof then begin
    refill lx;
    next_line lx
  end
  else if !i = lx.lo && !i = hi then false
  else begin
    lx.ls <- lx.lo;
    lx.le <- !i;
    lx.lo <- (if !i < hi then !i + 1 else !i);
    lx.num <- lx.num + 1;
    true
  end

(* A comment line's first character past [String.trim]'s whitespace is '#'. *)
let is_comment lx =
  let i = ref lx.ls in
  while
    !i < lx.le
    && match Bytes.unsafe_get lx.buf !i with ' ' | '\012' | '\n' | '\r' | '\t' -> true | _ -> false
  do
    incr i
  done;
  !i < lx.le && Bytes.unsafe_get lx.buf !i = '#'

let is_ucla_header lx =
  lx.num = 1 && lx.le - lx.ls >= 4 && Bytes.sub_string lx.buf lx.ls 4 = "UCLA"

(* Next meaningful line: blank lines, comments and a line-1 "UCLA"
   header are skipped.  False at the end of the file. *)
let rec next lx =
  next_line lx && ((lx.nt > 0 && not (is_comment lx || is_ucla_header lx)) || next lx)

let tok_len lx k = lx.te.(k) - lx.ts.(k)

(* token [k] equals [kw] *)
let is lx k kw =
  let s = lx.ts.(k) and n = String.length kw in
  tok_len lx k = n
  &&
  let i = ref 0 in
  while !i < n && Bytes.unsafe_get lx.buf (s + !i) = String.unsafe_get kw !i do
    incr i
  done;
  !i = n

(* some token from [k] on equals [kw] *)
let rec has lx k kw = k < lx.nt && (is lx k kw || has lx (k + 1) kw)

let str lx k = Bytes.sub_string lx.buf lx.ts.(k) (tok_len lx k)
let line_text lx = String.concat " " (List.init lx.nt (str lx))
let find_tok tbl lx k = Nametab.find_sub tbl lx.buf ~pos:lx.ts.(k) ~len:(tok_len lx k)
let add_tok tbl lx k = Nametab.add_sub tbl lx.buf ~pos:lx.ts.(k) ~len:(tok_len lx k)
let find_cell b lx k = Builder.find_cell b lx.buf ~pos:lx.ts.(k) ~len:(tok_len lx k)

let digit c = Char.code c - Char.code '0'

(* 10^0 .. 10^22, every one an exact double *)
let pow10 = Array.init 23 (fun f -> float_of_string ("1e" ^ string_of_int f))

(* The exact fast path: an optional sign, then digits with at most one
   '.', at most 15 significant digits and at most 22 after the '.'.  The
   digits read as an integer [m < 10^15 < 2^53] and [10^f] are both exact
   doubles, so the one correctly rounded division [m /. 10^f] is the
   double nearest the token's value — the bits [float_of_string] reads.
   Every other token (exponents, '_', hex, nan, inf, longer mantissas)
   goes through [float_of_string_opt]. *)
let float_tok lx k =
  let buf = lx.buf and e = lx.te.(k) in
  let i = ref lx.ts.(k) in
  let neg = Bytes.get buf !i = '-' in
  if neg || Bytes.get buf !i = '+' then incr i;
  let m = ref 0 and sig_digits = ref 0 and digits = ref 0 and frac = ref (-1) in
  while
    !i < e
    &&
    match Bytes.unsafe_get buf !i with
    | '0' .. '9' as c ->
      if !m > 0 || c <> '0' then incr sig_digits;
      m := (10 * !m) + digit c;
      incr digits;
      if !frac >= 0 then incr frac;
      !sig_digits <= 15
    | '.' when !frac < 0 ->
      frac := 0;
      true
    | _ -> false
  do
    incr i
  done;
  if !i = e && !digits > 0 && !frac <= 22 then begin
    let v = float_of_int !m /. pow10.(max 0 !frac) in
    if neg then -.v else v
  end
  else
    match float_of_string_opt (str lx k) with
    | Some f when Float.is_finite f -> f
    | Some _ | None -> fail lx "expected a finite number, got %S" (str lx k)

(* decimal with an optional '-' and at most 18 digits in place, anything
   else through [int_of_string_opt] *)
let int_tok lx k =
  let s = lx.ts.(k) and e = lx.te.(k) in
  let neg = Bytes.get lx.buf s = '-' in
  let s = if neg then s + 1 else s in
  let rec go i acc =
    if i = e then if neg then -acc else acc
    else
      match Bytes.unsafe_get lx.buf i with
      | '0' .. '9' as c -> go (i + 1) ((10 * acc) + digit c)
      | _ -> min_int
  in
  match if e > s && e - s <= 18 then go s 0 else min_int with
  | v when v <> min_int -> v
  | _ -> (
    match int_of_string_opt (str lx k) with
    | Some i -> i
    | None -> fail lx "expected an integer, got %S" (str lx k))

let open_lexer path =
  {
    lx_file = path;
    lx_ic = open_in path;
    buf = Bytes.create buffer_size;
    lo = 0;
    hi = 0;
    eof = false;
    num = 0;
    ls = 0;
    le = 0;
    ts = Array.make 16 0;
    te = Array.make 16 0;
    nt = 0;
  }

let with_lexer path f =
  let lx = open_lexer path in
  Fun.protect ~finally:(fun () -> close_in lx.lx_ic) (fun () -> f lx)

(* a line of [kw ":" value] with a header keyword *)
let is_count_line lx kw1 kw2 = lx.nt = 3 && (is lx 0 kw1 || is lx 0 kw2) && is lx 1 ":"

(* The reader streams every per-cell / per-pin file straight into the
   Builder: no whole-file [raw_node array] or [raw_net array] is ever
   materialized, so a 1M-cell design parses with O(1) transient memory on
   top of the Builder's own storage.  The price is two passes over [.pl]
   (the cell kind must be known at [add_cell] time, so pass 1 collects just
   the /FIXED name set — O(#fixed), typically pads and macros only — and
   pass 2 re-streams positions through [Builder.find_cell]). *)

(* [.pl] lines are [name x y : orient ...] *)
let check_pl_line lx =
  if not (lx.nt >= 5 && is lx 3 ":") then fail lx "bad pl line: %s" (line_text lx)

(* Pass 1 over [.pl]: which cells are marked /FIXED. *)
let read_fixed_names path =
  with_lexer path (fun lx ->
      let tbl = Nametab.create 64 in
      while next lx do
        check_pl_line lx;
        if has lx 5 "/FIXED" then ignore (add_tok tbl lx 0)
      done;
      tbl)

let rec orient_in lx k = function
  | [] -> fail lx "bad orientation %S" (str lx k)
  | o :: os -> if is lx k (Orient.to_string o) then o else orient_in lx k os

(* Pass 2 over [.pl]: apply position/orientation to already-added cells. *)
let stream_pl path b =
  with_lexer path (fun lx ->
      while next lx do
        check_pl_line lx;
        let orient = orient_in lx 4 Orient.all in
        let id = find_cell b lx 0 in
        if id >= 0 then begin
          let y = float_tok lx 2 in
          let x = float_tok lx 1 in
          Builder.set_position b id ~x ~y;
          Builder.set_orient b id orient
        end
      done)

(* Streaming pre-scan used only when the .scl carries no NumSites (the
   die-width fallback needs the widest node). *)
let scan_max_node_width path =
  with_lexer path (fun lx ->
      let m = ref 0.0 in
      while next lx do
        if is_count_line lx "NumNodes" "NumTerminals" then ()
        else if lx.nt >= 3 then m := max !m (float_tok lx 1)
        else fail lx "bad node line: %s" (line_text lx)
      done;
      !m)

(* The [.masters] lines: each cell name (the cell's name string when its
   node comes) numbered in file order, with its master. *)
type masters = { m_names : Nametab.t; m_master : string Dyn.t }

let no_masters () = { m_names = Nametab.create 0; m_master = Dyn.create () }

let stream_nodes path b ~fixed_names ~masters =
  with_lexer path (fun lx ->
      while next lx do
        if is_count_line lx "NumNodes" "NumTerminals" then ()
        else if lx.nt >= 3 then begin
          if find_cell b lx 0 >= 0 then fail lx "duplicate node %s" (str lx 0);
          let terminal = has lx 3 "terminal" in
          let terminal_ni = has lx 3 "terminal_NI" in
          let w = float_tok lx 1 in
          let h = float_tok lx 2 in
          let kind =
            (* [terminal_NI] is a non-blocking terminal -> Pad exactly;
               a plain [terminal] (or /FIXED in the .pl) is Fixed unless
               it has no area, the usual pad encoding in foreign
               benchmarks. *)
            if terminal_ni then Types.Pad
            else if terminal || (Nametab.length fixed_names > 0 && find_tok fixed_names lx 0 >= 0)
            then
              if w *. h <= 1e-9 then Types.Pad else Types.Fixed
            else Types.Movable
          in
          if kind = Types.Movable && (w <= 0.0 || h <= 0.0) then
            fail lx "movable node %s has size %g x %g" (str lx 0) w h;
          let name, master =
            match find_tok masters.m_names lx 0 with
            | -1 -> str lx 0, "UNKNOWN"
            | e -> Nametab.name masters.m_names e, Dyn.get masters.m_master e
          in
          ignore (Builder.add_cell b ~name ~master ~w ~h ~kind)
        end
        else fail lx "bad node line: %s" (line_text lx)
      done)

let dir_tok lx k =
  if is lx k "I" || is lx k "input" then Types.Input
  else if is lx k "O" || is lx k "output" then Types.Output
  else if is lx k "B" || is lx k "inout" then Types.Inout
  else fail lx "bad pin direction %S" (str lx k)

let stream_nets path b =
  with_lexer path (fun lx ->
      (* the current net; its pins are the [count] ids ending at [last] *)
      let name = ref "" and left = ref 0 and count = ref 0 and last = ref 0 in
      let flush () =
        if !name <> "" then begin
          if !left <> 0 then fail lx "net %s: wrong pin count" !name;
          let rec pins id acc = if id <= !last - !count then acc else pins (id - 1) (id :: acc) in
          ignore (Builder.add_net b ~name:!name (pins !last []));
          name := ""
        end
      in
      let start net =
        let k = int_tok lx 2 in
        if k < 1 then fail lx "net %s: degree %d" net k;
        name := net;
        left := k;
        count := 0
      in
      while next lx do
        if is_count_line lx "NumNets" "NumPins" then ()
        else if lx.nt = 4 && is lx 0 "NetDegree" && is lx 1 ":" then begin
          flush ();
          start (str lx 3)
        end
        else if lx.nt = 3 && is lx 0 "NetDegree" && is lx 1 ":" then begin
          flush ();
          start (Printf.sprintf "n%d" (Builder.num_nets b))
        end
        else if lx.nt = 5 && is lx 2 ":" && !name <> "" then begin
          let dir = dir_tok lx 1 in
          let cell = find_cell b lx 0 in
          if cell < 0 then fail lx "net %s: unknown cell %s" !name (str lx 0);
          let cw, ch = Builder.cell_dims b cell in
          (* center-relative -> lower-left-relative *)
          let dx = float_tok lx 3 +. (cw /. 2.0) in
          let dy = float_tok lx 4 +. (ch /. 2.0) in
          last := Builder.add_pin b ~cell ~dir ~dx ~dy ();
          incr count;
          decr left
        end
        else fail lx "bad nets line: %s" (line_text lx)
      done;
      flush ())

type raw_rows = {
  rr_count : int;
  rr_y0 : float;
  rr_height : float;
  rr_site_width : float;
  rr_x0 : float;
  rr_sites : int;
}

let read_scl path =
  with_lexer path (fun lx ->
      let count = ref 0 in
      let y0 = ref infinity in
      let height = ref 0.0 in
      let site_width = ref 1.0 in
      let x0 = ref 0.0 in
      let sites = ref 0 in
      while next lx do
        if lx.nt = 2 && is lx 0 "CoreRow" && is lx 1 "Horizontal" then incr count
        else if lx.nt = 3 && is lx 1 ":" then begin
          if is lx 0 "Coordinate" then y0 := min !y0 (float_tok lx 2)
          else if is lx 0 "Height" then height := float_tok lx 2
          else if is lx 0 "Sitewidth" then begin
            site_width := float_tok lx 2;
            if !site_width <= 0.0 then fail lx "Sitewidth must be positive, got %g" !site_width
          end
        end
        else if
          lx.nt = 6 && is lx 0 "SubrowOrigin" && is lx 1 ":" && is lx 3 "NumSites" && is lx 4 ":"
        then begin
          x0 := float_tok lx 2;
          sites := max !sites (int_tok lx 5)
        end
      done;
      if !count = 0 || !height <= 0.0 || !y0 = infinity then
        fail lx "scl file defines no usable rows";
      {
        rr_count = !count;
        rr_y0 = !y0;
        rr_height = !height;
        rr_site_width = !site_width;
        rr_x0 = !x0;
        rr_sites = !sites;
      })

let read_masters path =
  with_lexer path (fun lx ->
      let m = { m_names = Nametab.create 1024; m_master = Dyn.create () } in
      (* one string per distinct master, however many cells share it *)
      let pool = Nametab.create 64 in
      while next lx do
        if lx.nt <> 2 then fail lx "bad masters line: %s" (line_text lx);
        let master = Nametab.name pool (add_tok pool lx 1) in
        let n = Nametab.length m.m_names in
        match add_tok m.m_names lx 0 with
        | e when e = n -> Dyn.push m.m_master master
        | e -> Dyn.set m.m_master e master
      done;
      m)

(* Group rows name their cells, so this runs once the nodes are in [b]. *)
let stream_groups path b =
  with_lexer path (fun lx ->
      let read_row name stages =
        if not (next lx) then fail lx "group %s: truncated" name;
        if lx.nt <> stages then fail lx "group %s: bad row width" name;
        Array.init stages (fun k ->
            if is lx k "-" then -1
            else
              match find_cell b lx k with
              | -1 -> fail lx "group %s: unknown cell %s" name (str lx k)
              | id -> id)
      in
      while next lx do
        if lx.nt = 4 && is lx 0 "Group" then begin
          let name = str lx 1 in
          let slices = int_tok lx 2 in
          let stages = int_tok lx 3 in
          if slices < 1 || stages < 1 then
            fail lx "group %s: %d slices x %d stages" name slices stages;
          Builder.add_group b (Groups.make name (Array.init slices (fun _ -> read_row name stages)))
        end
        else fail lx "bad groups line: %s" (line_text lx)
      done)

let read ~basename =
  let dir = Filename.dirname basename in
  let aux_path = basename ^ ".aux" in
  let files =
    with_lexer aux_path (fun lx ->
        if next lx && lx.nt >= 2 && is lx 1 ":" then List.init (lx.nt - 2) (fun k -> str lx (k + 2))
        else fail lx "bad aux file")
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
  let masters = match find_ext ".masters" with Some f -> read_masters f | None -> no_masters () in
  let die_w =
    if rows.rr_sites > 0 then float_of_int rows.rr_sites *. rows.rr_site_width
    else
      (* Fall back to the extent of the placement. *)
      scan_max_node_width nodes_path *. 4.0
  in
  if not (Float.is_finite die_w && die_w > 0.0) then
    raise
      (Parse_error
         (Printf.sprintf "%s: die width %g is not finite and positive (rows without NumSites take \
                          4x the widest node)"
            scl_path die_w));
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
