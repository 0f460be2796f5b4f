module Soa = Dpp_netlist.Soa
module I32 = Dpp_util.Compact.I32

type t = {
  (* cell [u]'s edges are [edge_off.(u) .. edge_off.(u + 1) - 1], in the
     order the nets generate them, each (label, target) pair once *)
  edge_off : int array;
  edge_label : int array;  (** dense label id *)
  edge_target : int array;
  ids : Idtab.t;  (** label -> dense id *)
  count : int array;  (** dense id -> edges carrying the label *)
  target_cls : int array;  (** dense id -> target class *)
  by_source_class : int list array;  (** class -> labels, ascending *)
}

let mix = Signature.mix

(* Every ordered pair of pins [p], [q] of a data net on two different
   classed cells [u], [v] is an edge [u -> v]: nets in order, then pins
   in net order. *)
let iter_pairs (s : Soa.t) (nc : Netclass.t) cls f =
  for n = 0 to Soa.num_nets s - 1 do
    if Netclass.kind nc n = Netclass.Data then begin
      let lo = Int32.to_int (I32.uget s.Soa.net_pin_off n)
      and hi = Int32.to_int (I32.uget s.Soa.net_pin_off (n + 1)) - 1 in
      for a = lo to hi do
        let p = Int32.to_int (I32.uget s.Soa.net_pin a) in
        let u = Int32.to_int (I32.uget s.Soa.pin_cell p) in
        if cls.(u) >= 0 then
          for b = lo to hi do
            let q = Int32.to_int (I32.uget s.Soa.net_pin b) in
            let v = Int32.to_int (I32.uget s.Soa.pin_cell q) in
            if p <> q && u <> v && cls.(v) >= 0 then f u p v q
          done
      done
    end
  done

(* [a] with room for index [n] *)
let room a n = if n < Array.length a then a else Array.append a (Array.make (Array.length a) 0)

let build (s : Soa.t) (nc : Netclass.t) (sg : Signature.t) =
  let n_cells = Soa.num_cells s in
  let cls = sg.Signature.colors in
  let pcls = sg.Signature.pin_classes in
  (* edges per source cell, then each cell's slice of the edge arrays *)
  let edge_off = Array.make (n_cells + 1) 0 in
  iter_pairs s nc cls (fun u _ _ _ -> edge_off.(u + 1) <- edge_off.(u + 1) + 1);
  for u = 0 to n_cells - 1 do
    edge_off.(u + 1) <- edge_off.(u) + edge_off.(u + 1)
  done;
  let edge_label = Array.make (max 1 edge_off.(n_cells)) 0 in
  let edge_target = Array.make (max 1 edge_off.(n_cells)) 0 in
  let fill = Array.sub edge_off 0 n_cells in
  let ids = Idtab.create 1024 in
  let label_of = ref (Array.make 1024 0) and source_cls = ref (Array.make 1024 0) in
  let target_cls = ref (Array.make 1024 0) in
  iter_pairs s nc cls (fun u p v q ->
      let label = mix (mix (mix (mix 7 cls.(u)) pcls.(p)) cls.(v)) pcls.(q) in
      let fresh = Idtab.count ids in
      let id = Idtab.id ids label in
      if id = fresh then begin
        (* a label's classes are the ones it is first seen with *)
        label_of := room !label_of id;
        source_cls := room !source_cls id;
        target_cls := room !target_cls id;
        !label_of.(id) <- label;
        !source_cls.(id) <- cls.(u);
        !target_cls.(id) <- cls.(v)
      end;
      edge_label.(fill.(u)) <- id;
      edge_target.(fill.(u)) <- v;
      fill.(u) <- fill.(u) + 1);
  (* drop a cell's repeated (label, target) pairs — parallel nets — in
     place, keeping first occurrences in order, and count the rest *)
  let count = Array.make (Idtab.count ids) 0 in
  let w = ref 0 in
  for u = 0 to n_cells - 1 do
    let lo = edge_off.(u) and hi = edge_off.(u + 1) in
    edge_off.(u) <- !w;
    for e = lo to hi - 1 do
      let l = edge_label.(e) and v = edge_target.(e) in
      let f = ref edge_off.(u) in
      while !f < !w && not (edge_label.(!f) = l && edge_target.(!f) = v) do
        incr f
      done;
      if !f = !w then begin
        edge_label.(!w) <- l;
        edge_target.(!w) <- v;
        count.(l) <- count.(l) + 1;
        incr w
      end
    done
  done;
  edge_off.(n_cells) <- !w;
  (* each class's labels, ascending: bucketed by class, then sorted *)
  let nl = Idtab.count ids and source_cls = !source_cls and label_of = !label_of in
  let start = Array.make (sg.Signature.num_classes + 1) 0 in
  for id = 0 to nl - 1 do
    start.(source_cls.(id) + 1) <- start.(source_cls.(id) + 1) + 1
  done;
  for c = 1 to sg.Signature.num_classes do
    start.(c) <- start.(c - 1) + start.(c)
  done;
  let bucketed = Array.make nl 0 and fill = Array.copy start in
  for id = 0 to nl - 1 do
    let c = source_cls.(id) in
    bucketed.(fill.(c)) <- label_of.(id);
    fill.(c) <- fill.(c) + 1
  done;
  let by_source_class =
    Array.init sg.Signature.num_classes (fun c ->
        let labels = Array.sub bucketed start.(c) (start.(c + 1) - start.(c)) in
        Array.stable_sort Int.compare labels;
        Array.to_list labels)
  in
  {
    edge_off;
    edge_label;
    edge_target;
    ids;
    count;
    target_cls = !target_cls;
    by_source_class;
  }

let labels_from_class t cls =
  if cls >= 0 && cls < Array.length t.by_source_class then t.by_source_class.(cls) else []

let count t label =
  match Idtab.find t.ids label with -1 -> 0 | id -> t.count.(id)

let target t ~cell ~label =
  match Idtab.find t.ids label with
  | -1 -> -1
  | id ->
    let found = ref (-1) and ambiguous = ref false in
    for e = t.edge_off.(cell) to t.edge_off.(cell + 1) - 1 do
      if t.edge_label.(e) = id then
        if !found < 0 then found := t.edge_target.(e) else ambiguous := true
    done;
    if !ambiguous then -1 else !found

let target_class t label = t.target_cls.(Idtab.find t.ids label)
