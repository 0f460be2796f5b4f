(* A bounded LRU table, and the extraction cache built on it: structural
   netlist hash -> slicer result. *)

module Design = Dpp_netlist.Design
module Types = Dpp_netlist.Types
module Slicer = Dpp_extract.Slicer
module Exmetrics = Dpp_extract.Exmetrics
module Flow = Dpp_core.Flow
module Ctx = Dpp_core.Ctx

(* ----- structural hash: 64-bit FNV-1a over the incidence structure ----- *)

let fnv_offset = 0xcbf29ce484222325L
let fnv_prime = 0x100000001b3L

let mix h byte = Int64.mul (Int64.logxor h (Int64.of_int (byte land 0xff))) fnv_prime

let mix_int h i =
  let h = ref h in
  for shift = 0 to 7 do
    h := mix !h ((i lsr (shift * 8)) land 0xff)
  done;
  !h

let mix_float h f = mix_int h (Int64.to_int (Int64.bits_of_float f))

let mix_string h s =
  let h = ref (mix_int h (String.length s)) in
  String.iter (fun c -> h := mix !h (Char.code c)) s;
  !h

let hash_design (d : Design.t) =
  let h = ref fnv_offset in
  h := mix_float !h d.Design.die.Dpp_geom.Rect.xl;
  h := mix_float !h d.Design.die.Dpp_geom.Rect.yl;
  h := mix_float !h d.Design.die.Dpp_geom.Rect.xh;
  h := mix_float !h d.Design.die.Dpp_geom.Rect.yh;
  h := mix_float !h d.Design.row_height;
  h := mix_float !h d.Design.site_width;
  Array.iter
    (fun (c : Types.cell) ->
      h := mix_string !h c.Types.c_master;
      h := mix_float !h c.Types.c_width;
      h := mix_float !h c.Types.c_height;
      h := mix_int !h (match c.Types.c_kind with Types.Movable -> 0 | Types.Fixed -> 1 | Types.Pad -> 2))
    d.Design.cells;
  Array.iter
    (fun (n : Types.net) ->
      h := mix_float !h n.Types.n_weight;
      h := mix_int !h (Array.length n.Types.n_pins);
      Array.iter
        (fun p ->
          let pin = d.Design.pins.(p) in
          h := mix_int !h pin.Types.p_cell;
          h :=
            mix_int !h
              (match pin.Types.p_dir with Types.Input -> 0 | Types.Output -> 1 | Types.Inout -> 2);
          h := mix_float !h pin.Types.p_dx;
          h := mix_float !h pin.Types.p_dy)
        n.Types.n_pins)
    d.Design.nets;
  !h

(* ----- bounded LRU ----- *)

type entry = { slicer : Slicer.result; metrics : Exmetrics.t }
type stats = { hits : int; misses : int; evictions : int; size : int }

type ('k, 'v) t = {
  capacity : int;
  table : ('k, 'v) Hashtbl.t;
  mutable order : 'k list;  (* most-recent first; short: capacity-bounded *)
  mutable hits : int;
  mutable misses : int;
  mutable evictions : int;
  lock : Mutex.t;
}

let create ~capacity =
  {
    capacity = max 1 capacity;
    table = Hashtbl.create 64;
    order = [];
    hits = 0;
    misses = 0;
    evictions = 0;
    lock = Mutex.create ();
  }

let with_lock t f =
  Mutex.lock t.lock;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.lock) f

let touch t k = t.order <- k :: List.filter (fun k' -> k' <> k) t.order

let find t k =
  with_lock t (fun () ->
      match Hashtbl.find_opt t.table k with
      | Some e ->
        t.hits <- t.hits + 1;
        touch t k;
        Some e
      | None ->
        t.misses <- t.misses + 1;
        None)

let add t k e =
  with_lock t (fun () ->
      if not (Hashtbl.mem t.table k) then begin
        Hashtbl.replace t.table k e;
        touch t k;
        if Hashtbl.length t.table > t.capacity then begin
          match List.rev t.order with
          | oldest :: _ ->
            Hashtbl.remove t.table oldest;
            t.order <- List.filter (fun k' -> k' <> oldest) t.order;
            t.evictions <- t.evictions + 1
          | [] -> ()
        end
      end
      else touch t k)

let mem t k = with_lock t (fun () -> Hashtbl.mem t.table k)

let stats t =
  with_lock t (fun () ->
      { hits = t.hits; misses = t.misses; evictions = t.evictions; size = Hashtbl.length t.table })

(* ----- flow integration ----- *)

let extract_stage t =
  {
    Flow.extract_stage with
    run =
      (fun (ctx : Ctx.t) ->
        let k = hash_design ctx.Ctx.design in
        match find t k with
        | Some e ->
          ctx.Ctx.extraction <- Some (e.slicer, e.metrics);
          ctx.Ctx.groups_used <- e.slicer.Slicer.groups;
          ctx
        | None ->
          let ctx = Flow.extract_stage.Flow.run ctx in
          (match ctx.Ctx.extraction with
          | Some (slicer, metrics) -> add t k { slicer; metrics }
          | None -> ());
          ctx);
  }
