module Design = Dpp_netlist.Design
module Types = Dpp_netlist.Types

type t = { colors : int array; num_classes : int; class_members : int array array }

(* Deterministic int mixing (splitmix64 finaliser), independent of
   Hashtbl.hash versioning. *)
let mix h v =
  let z = Int64.add (Int64.of_int h) (Int64.mul (Int64.of_int v) 0x9E3779B97F4A7C15L) in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27)) 0x94D049BB133111EBL in
  Int64.to_int (Int64.logand (Int64.logxor z (Int64.shift_right_logical z 31)) 0x3FFFFFFFFFFFFFFFL)

let hash_string s = String.fold_left (fun acc c -> mix acc (Char.code c)) 17 s

let pin_class (d : Design.t) p =
  let pin = Design.pin d p in
  let dir =
    match pin.Types.p_dir with Types.Input -> 1 | Types.Output -> 2 | Types.Inout -> 3
  in
  let q f = int_of_float (Float.round (f *. 16.0)) in
  mix (mix (mix 23 dir) (q pin.Types.p_dx)) (q pin.Types.p_dy)

let degree_bucket deg = if deg <= 4 then deg else if deg <= 8 then 5 else 6

(* Compact arbitrary hash values to dense ids 0..k-1 (stable: first-seen
   order by ascending cell id). *)
let compact colors =
  let tbl = Hashtbl.create 256 in
  let next = ref 0 in
  Array.map
    (fun c ->
      if c < 0 then -1
      else
        match Hashtbl.find_opt tbl c with
        | Some id -> id
        | None ->
          let id = !next in
          Hashtbl.add tbl c id;
          incr next;
          id)
    colors

let compute (d : Design.t) (nc : Netclass.t) ~iterations =
  let n_cells = Design.num_cells d in
  let colors =
    Array.init n_cells (fun i ->
        let c = Design.cell d i in
        if Types.is_fixed_kind c.Types.c_kind then -1 else hash_string c.Types.c_master)
  in
  let colors = ref (compact colors) in
  (* pin -> class hash, precomputed once *)
  let pcls = Array.init (Design.num_pins d) (fun p -> pin_class d p) in
  for _round = 1 to iterations do
    let next = Array.make n_cells (-1) in
    for i = 0 to n_cells - 1 do
      if !colors.(i) >= 0 then begin
        (* Gather (own pin class, net bucket, neighbour color, neighbour pin
           class) tuples over data nets, hash order-independently by
           sorting.

           Fanout-only: a cell is characterised by what it DRIVES, never by
           what drives it.  Replicated slices receive their operands from
           arbitrary external logic (a different glue cell per bit), so
           fanin tuples would individuate every replica and destroy the
           classes; fanout inside a bit-sliced structure is replicated by
           construction. *)
        let tuples = ref [] in
        Array.iter
          (fun p ->
            let pin = Design.pin d p in
            let n = pin.Types.p_net in
            if
              pin.Types.p_dir = Types.Output
              && n >= 0
              && Netclass.kind nc n = Netclass.Data
            then begin
              let bucket = degree_bucket nc.Netclass.movable_degree.(n) in
              Array.iter
                (fun q ->
                  let qpin = Design.pin d q in
                  let j = qpin.Types.p_cell in
                  if j <> i && !colors.(j) >= 0 then
                    tuples := mix (mix (mix (mix 5 pcls.(p)) bucket) !colors.(j)) pcls.(q) :: !tuples)
                (Design.net d n).Types.n_pins
            end)
          (Design.cell d i).Types.c_pins;
        let tuples = List.sort compare !tuples in
        next.(i) <- List.fold_left mix (mix 11 !colors.(i)) tuples
      end
    done;
    colors := compact next
  done;
  let colors = !colors in
  let num_classes = Array.fold_left (fun m c -> max m (c + 1)) 0 colors in
  let buckets = Array.make num_classes [] in
  for i = n_cells - 1 downto 0 do
    if colors.(i) >= 0 then buckets.(colors.(i)) <- i :: buckets.(colors.(i))
  done;
  { colors; num_classes; class_members = Array.map Array.of_list buckets }

let class_of t i = t.colors.(i)
