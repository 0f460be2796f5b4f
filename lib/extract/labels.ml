module Design = Dpp_netlist.Design
module Types = Dpp_netlist.Types

type t = {
  (* cell -> (label, target) list, deduplicated *)
  out_edges : (int * int) list array;
  label_count : (int, int) Hashtbl.t;
  by_source_class : (int, int list) Hashtbl.t;  (** class -> labels *)
  label_classes : (int, int * int) Hashtbl.t;  (** label -> (src class, dst class) *)
}

let mix h v =
  let z = Int64.add (Int64.of_int h) (Int64.mul (Int64.of_int v) 0x9E3779B97F4A7C15L) in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27)) 0x94D049BB133111EBL in
  Int64.to_int (Int64.logand (Int64.logxor z (Int64.shift_right_logical z 31)) 0x3FFFFFFFFFFFFFFFL)

let build (d : Design.t) (nc : Netclass.t) (sg : Signature.t) =
  let n_cells = Design.num_cells d in
  let out_edges = Array.make n_cells [] in
  let label_count = Hashtbl.create 1024 in
  let label_classes = Hashtbl.create 1024 in
  let add_edge u p v q =
    let cu = Signature.class_of sg u and cv = Signature.class_of sg v in
    if cu >= 0 && cv >= 0 then begin
      let label = mix (mix (mix (mix 7 cu) (Signature.pin_class d p)) cv) (Signature.pin_class d q) in
      (* dedup: same (label, target) may arise from parallel nets *)
      if not (List.mem (label, v) out_edges.(u)) then begin
        out_edges.(u) <- (label, v) :: out_edges.(u);
        Hashtbl.replace label_count label
          (1 + Option.value ~default:0 (Hashtbl.find_opt label_count label));
        if not (Hashtbl.mem label_classes label) then Hashtbl.add label_classes label (cu, cv)
      end
    end
  in
  for n = 0 to Design.num_nets d - 1 do
    if Netclass.kind nc n = Netclass.Data then begin
      let pins = (Design.net d n).Types.n_pins in
      Array.iter
        (fun p ->
          let pu = Design.pin d p in
          Array.iter
            (fun q ->
              if p <> q then begin
                let pv = Design.pin d q in
                if pu.Types.p_cell <> pv.Types.p_cell then
                  add_edge pu.Types.p_cell p pv.Types.p_cell q
              end)
            pins)
        pins
    end
  done;
  let by_source_class = Hashtbl.create 256 in
  Hashtbl.iter
    (fun label (src, _) ->
      let prev = Option.value ~default:[] (Hashtbl.find_opt by_source_class src) in
      Hashtbl.replace by_source_class src (label :: prev))
    label_classes;
  (* Deterministic label order within a class. *)
  let by_source_class_sorted = Hashtbl.create 256 in
  Hashtbl.iter
    (fun src labels -> Hashtbl.add by_source_class_sorted src (List.sort compare labels))
    by_source_class;
  { out_edges; label_count; by_source_class = by_source_class_sorted; label_classes }

let labels_from_class t cls = Option.value ~default:[] (Hashtbl.find_opt t.by_source_class cls)

let count t label = Option.value ~default:0 (Hashtbl.find_opt t.label_count label)

let targets_exn t ~cell ~label =
  List.filter_map (fun (l, v) -> if l = label then Some v else None) t.out_edges.(cell)

let target t ~cell ~label =
  match targets_exn t ~cell ~label with [ v ] -> Some v | [] | _ :: _ -> None

let source_class t label = fst (Hashtbl.find t.label_classes label)
let target_class t label = snd (Hashtbl.find t.label_classes label)
