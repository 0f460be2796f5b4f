module Soa = Dpp_netlist.Soa

type kind = Data | Control | Ignored

type t = { kinds : kind array; movable_degree : int array }

let classify (s : Soa.t) ~max_data_degree =
  if max_data_degree < 2 then invalid_arg "Netclass.classify: max_data_degree < 2";
  let nn = Soa.num_nets s in
  let kinds = Array.make nn Ignored in
  let movable_degree = Array.make nn 0 in
  for n = 0 to nn - 1 do
    let deg = ref 0 in
    Soa.iter_cells_of_net s n (fun c -> if not (Soa.is_fixed s c) then incr deg);
    movable_degree.(n) <- !deg;
    kinds.(n) <-
      (if !deg < 2 then Ignored else if !deg <= max_data_degree then Data else Control)
  done;
  { kinds; movable_degree }

let kind t n = t.kinds.(n)
