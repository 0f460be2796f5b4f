module Soa = Dpp_netlist.Soa
module Types = Dpp_netlist.Types
module I32 = Dpp_util.Compact.I32
module I8 = Dpp_util.Compact.I8
module F64 = Dpp_util.Compact.F64

type t = {
  colors : int array;
  num_classes : int;
  class_members : int array array;
  pin_classes : int array;
}

(* Deterministic int mixing (splitmix64 finaliser), independent of
   Hashtbl.hash versioning. *)
let mix h v =
  let z = Int64.add (Int64.of_int h) (Int64.mul (Int64.of_int v) 0x9E3779B97F4A7C15L) in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27)) 0x94D049BB133111EBL in
  Int64.to_int (Int64.logand (Int64.logxor z (Int64.shift_right_logical z 31)) 0x3FFFFFFFFFFFFFFFL)

let hash_string s = String.fold_left (fun acc c -> mix acc (Char.code c)) 17 s

let pin_class (s : Soa.t) p =
  let dir =
    match Soa.dir_of_code (I8.get s.Soa.pin_dir p) with
    | Types.Input -> 1
    | Types.Output -> 2
    | Types.Inout -> 3
  in
  let q f = int_of_float (Float.round (f *. 16.0)) in
  mix (mix (mix 23 dir) (q (F64.get s.Soa.pin_dx p))) (q (F64.get s.Soa.pin_dy p))

let degree_bucket deg = if deg <= 4 then deg else if deg <= 8 then 5 else 6

(* Compact hash colours in place to dense ids 0..k-1 (stable: first-seen
   order by ascending cell id). *)
let compact tbl colors =
  Idtab.clear tbl;
  Array.iteri (fun i c -> if c >= 0 then colors.(i) <- Idtab.id tbl c) colors

(* ascending sort of [a.(0 .. n - 1)]: insertion for the usual handful,
   the library sort past that *)
let sort_prefix a n =
  if n <= 16 then
    for i = 1 to n - 1 do
      let v = a.(i) in
      let j = ref (i - 1) in
      while !j >= 0 && a.(!j) > v do
        a.(!j + 1) <- a.(!j);
        decr j
      done;
      a.(!j + 1) <- v
    done
  else begin
    let s = Array.sub a 0 n in
    Array.sort Int.compare s;
    Array.blit s 0 a 0 n
  end

let compute (s : Soa.t) (nc : Netclass.t) ~iterations =
  let n_cells = Soa.num_cells s in
  let colors =
    Array.init n_cells (fun i -> if Soa.is_fixed s i then -1 else hash_string s.Soa.cell_master.(i))
  in
  let tbl = Idtab.create n_cells in
  compact tbl colors;
  (* pin -> class hash, precomputed once *)
  let pcls = Array.init (Soa.num_pins s) (pin_class s) in
  let output = Soa.code_of_dir Types.Output in
  let tuples = ref (Array.make 64 0) in
  let colors = ref colors in
  for _round = 1 to iterations do
    let cur = !colors in
    let next = Array.make n_cells (-1) in
    for i = 0 to n_cells - 1 do
      if cur.(i) >= 0 then begin
        (* Gather (own pin class, net bucket, neighbour color, neighbour pin
           class) tuples over data nets, hash order-independently by
           sorting.

           Fanout-only: a cell is characterised by what it DRIVES, never by
           what drives it.  Replicated slices receive their operands from
           arbitrary external logic (a different glue cell per bit), so
           fanin tuples would individuate every replica and destroy the
           classes; fanout inside a bit-sliced structure is replicated by
           construction. *)
        let k = ref 0 in
        for
          a = Int32.to_int (I32.uget s.Soa.cell_pin_off i)
          to Int32.to_int (I32.uget s.Soa.cell_pin_off (i + 1)) - 1
        do
          let p = Int32.to_int (I32.uget s.Soa.cell_pin a) in
          let n = Int32.to_int (I32.uget s.Soa.pin_net p) in
          if I8.uget s.Soa.pin_dir p = output && n >= 0 && Netclass.kind nc n = Netclass.Data
          then begin
            let h = mix (mix 5 pcls.(p)) (degree_bucket nc.Netclass.movable_degree.(n)) in
            for
              b = Int32.to_int (I32.uget s.Soa.net_pin_off n)
              to Int32.to_int (I32.uget s.Soa.net_pin_off (n + 1)) - 1
            do
              let q = Int32.to_int (I32.uget s.Soa.net_pin b) in
              let j = Int32.to_int (I32.uget s.Soa.pin_cell q) in
              if j <> i && cur.(j) >= 0 then begin
                if !k = Array.length !tuples then
                  tuples := Array.append !tuples !tuples;
                !tuples.(!k) <- mix (mix h cur.(j)) pcls.(q);
                incr k
              end
            done
          end
        done;
        sort_prefix !tuples !k;
        let h = ref (mix 11 cur.(i)) in
        for t = 0 to !k - 1 do
          h := mix !h !tuples.(t)
        done;
        next.(i) <- !h
      end
    done;
    compact tbl next;
    colors := next
  done;
  let colors = !colors in
  let num_classes = Array.fold_left (fun m c -> max m (c + 1)) 0 colors in
  (* members by one counting sort, each class ascending *)
  let fill = Array.make num_classes 0 in
  Array.iter (fun c -> if c >= 0 then fill.(c) <- fill.(c) + 1) colors;
  let class_members = Array.map (fun k -> Array.make k 0) fill in
  Array.fill fill 0 num_classes 0;
  Array.iteri
    (fun i c ->
      if c >= 0 then begin
        class_members.(c).(fill.(c)) <- i;
        fill.(c) <- fill.(c) + 1
      end)
    colors;
  { colors; num_classes; class_members; pin_classes = pcls }

let class_of t i = t.colors.(i)
