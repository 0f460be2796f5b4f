module Design = Dpp_netlist.Design
module Types = Dpp_netlist.Types
module Pins = Dpp_wirelen.Pins

let manhattan (x1, y1) (x2, y2) = abs_float (x1 -. x2) +. abs_float (y1 -. y2)

let hpwl3 points =
  let xs = Array.map fst points and ys = Array.map snd points in
  let fmax = Array.fold_left max neg_infinity and fmin = Array.fold_left min infinity in
  fmax xs -. fmin xs +. fmax ys -. fmin ys

let max_iterated_degree = 10

(* Iterated 1-Steiner: repeatedly add the Hanan-grid point that shrinks the
   MST the most.  Terminals stay; added Steiner points of degree <= 2 would
   be redundant but the MST length is what we report, so we skip cleanup. *)
let iterated_one_steiner points =
  let base = Mst.length points in
  let xs = Array.map fst points and ys = Array.map snd points in
  let current = ref (Array.to_list points) in
  let best_len = ref base in
  let k = Array.length points in
  let max_added = max 1 (k - 2) in
  let added = ref 0 in
  let improved = ref true in
  while !improved && !added < max_added do
    improved := false;
    let cur_arr = Array.of_list !current in
    let best_gain = ref 1e-9 in
    let best_point = ref None in
    Array.iter
      (fun hx ->
        Array.iter
          (fun hy ->
            let cand = (hx, hy) in
            if not (Array.exists (fun p -> p = cand) cur_arr) then begin
              let len = Mst.length (Array.append cur_arr [| cand |]) in
              let gain = !best_len -. len in
              if gain > !best_gain then begin
                best_gain := gain;
                best_point := Some (cand, len)
              end
            end)
          ys)
      xs;
    match !best_point with
    | Some (p, len) ->
      current := p :: !current;
      best_len := len;
      incr added;
      improved := true
    | None -> ()
  done;
  !best_len

let length points =
  match Array.length points with
  | 0 | 1 -> 0.0
  | 2 -> manhattan points.(0) points.(1)
  | 3 -> hpwl3 points
  | k when k <= max_iterated_degree -> iterated_one_steiner points
  | _ -> Mst.length points

let net_length t ~cx ~cy n =
  let k = Pins.load_net t ~cx ~cy n in
  let points = Array.init k (fun i -> t.Pins.scratch_x.(i), t.Pins.scratch_y.(i)) in
  length points

let total t ~cx ~cy =
  let acc = ref 0.0 in
  let s = t.Pins.soa in
  for n = 0 to Dpp_netlist.Soa.num_nets s - 1 do
    let w = s.Dpp_netlist.Soa.net_weight.(n) in
    acc := !acc +. (w *. net_length t ~cx ~cy n)
  done;
  !acc

module I32 = Dpp_util.Compact.I32
module F64 = Dpp_util.Compact.F64

(* Bigarray-backed, so a stored record stays out of the OCaml heap:
   keeping one per serve base, and building one per metrics stage, does
   not grow the heap the GC paces itself by. *)
type nets = {
  pin_off : I32.t;  (* net n's pins are slots pin_off.(n) .. pin_off.(n+1) - 1 *)
  px : F64.t;  (* pin coordinates per slot, each net's pins in net order *)
  py : F64.t;
  len : F64.t;  (* Steiner length per net *)
}

let empty = { pin_off = I32.make 1 0; px = F64.make 0 0.0; py = F64.make 0 0.0; len = F64.make 0 0.0 }

let same_bits a b = Int64.equal (Int64.bits_of_float a) (Int64.bits_of_float b)

(* net [n] of [r] spans [k] slots from [lo] holding exactly [r]'s
   coordinates for the same net id, bit for bit and in the same order *)
let unchanged (r : nets) ~px ~py ~lo ~k n =
  n < F64.length r.len
  && Int32.to_int (I32.uget r.pin_off (n + 1)) - Int32.to_int (I32.uget r.pin_off n) = k
  &&
  let rlo = Int32.to_int (I32.uget r.pin_off n) in
  let rec go i =
    i = k
    || same_bits (F64.uget px (lo + i)) (F64.uget r.px (rlo + i))
       && same_bits (F64.uget py (lo + i)) (F64.uget r.py (rlo + i))
       && go (i + 1)
  in
  go 0

let measure t ~cx ~cy ~reuse =
  let s = t.Pins.soa in
  let nn = Dpp_netlist.Soa.num_nets s in
  (* the netlist view's own net->pin offsets: never mutated, so shared *)
  let pin_off = s.Dpp_netlist.Soa.net_pin_off and net_pin = s.Dpp_netlist.Soa.net_pin in
  let np = Int32.to_int (I32.uget pin_off nn) in
  let px = F64.make np 0.0 and py = F64.make np 0.0 and len = F64.make nn 0.0 in
  let acc = ref 0.0 in
  for n = 0 to nn - 1 do
    let lo = Int32.to_int (I32.uget pin_off n) in
    let k = Int32.to_int (I32.uget pin_off (n + 1)) - lo in
    (* [Pins.load_net]'s pin coordinates, written out: a function from
       another module would cost a call and a boxed float per pin *)
    for i = 0 to k - 1 do
      let p = Int32.to_int (I32.uget net_pin (lo + i)) in
      let c = Int32.to_int (I32.uget t.Pins.pin_cell p) in
      F64.uset px (lo + i) (cx.(c) +. t.Pins.off_x.(p));
      F64.uset py (lo + i) (cy.(c) +. t.Pins.off_y.(p))
    done;
    F64.uset len n
      (if unchanged reuse ~px ~py ~lo ~k n then F64.uget reuse.len n
       else length (Array.init k (fun i -> F64.uget px (lo + i), F64.uget py (lo + i))));
    (* the same sum, in the same net order, as [total] *)
    acc := !acc +. (s.Dpp_netlist.Soa.net_weight.(n) *. F64.uget len n)
  done;
  { pin_off; px; py; len }, !acc

let total_of_design d =
  let t = Pins.build d in
  let cx, cy = Pins.centers_of_design d in
  total t ~cx ~cy
