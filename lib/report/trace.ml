type check = { ok : bool; oracles : string list; violations : string list }

type level = { index : int; movables : int; hpwl : float; overflow : float; wall_s : float }

type stage = {
  name : string;
  wall_s : float;
  t_s : float;
  hpwl_before : float;
  hpwl_after : float;
  overflow : float option;
  vm_hwm_kb : int;
  heap_kb : int;
  levels : level list;
  check : check option;
  extra : (string * Json.t) list;
}

type t = { design : string; mode : string; total_s : float; stages : stage list }

(* ----- encoding: records to Json values; [write] streams them through
   [Json.add_to_buffer], and [of_json] below reads them back ----- *)

let stage_to_json s =
  let strs l = Json.Arr (List.map (fun x -> Json.Str x) l) in
  Json.Obj
    ([
       "name", Json.Str s.name;
       "wall_s", Json.Num s.wall_s;
       "t_s", Json.Num s.t_s;
       "hpwl_before", Json.Num s.hpwl_before;
       "hpwl_after", Json.Num s.hpwl_after;
       "overflow", (match s.overflow with Some v -> Json.Num v | None -> Json.Null);
       "vm_hwm_kb", Json.Num (float_of_int s.vm_hwm_kb);
       "heap_kb", Json.Num (float_of_int s.heap_kb);
       ( "levels",
         Json.Arr
           (List.map
              (fun l ->
                Json.Obj
                  [
                    "index", Json.Num (float_of_int l.index);
                    "movables", Json.Num (float_of_int l.movables);
                    "hpwl", Json.Num l.hpwl;
                    "overflow", Json.Num l.overflow;
                    "wall_s", Json.Num l.wall_s;
                  ])
              s.levels) );
       ( "check",
         match s.check with
         | Some c ->
           Json.Obj
             [ "ok", Json.Bool c.ok; "oracles", strs c.oracles; "violations", strs c.violations ]
         | None -> Json.Null );
     ]
    @ s.extra)

let to_json t =
  Json.Obj
    [
      "design", Json.Str t.design;
      "mode", Json.Str t.mode;
      "total_s", Json.Num t.total_s;
      "stages", Json.Arr (List.map stage_to_json t.stages);
    ]

(* ----- parsing (the read side of the event-stream / trace schema) -----

   Tolerant by design: unknown per-stage fields are collected into
   [extra] and re-emitted by [stage_to_json], so producers can evolve the
   schema (the serving layer's event stream adds per-stage payloads like
   ["eco"]) without breaking older readers.  The [levels] array is
   likewise accepted on {e any} stage, not just [gp] — an earlier reader
   rejected it elsewhere, which made every schema extension a parse
   error. *)

let known_stage_fields =
  [
    "name"; "wall_s"; "t_s"; "hpwl_before"; "hpwl_after"; "overflow"; "vm_hwm_kb";
    "heap_kb"; "levels"; "check";
  ]

let get_num ?(default = 0.0) key v =
  match Json.member key v with Some (Json.Num f) -> f | _ -> default

let get_str ?(default = "") key v =
  match Json.member key v with Some (Json.Str s) -> s | _ -> default

let check_of_json v =
  let strings key =
    match Json.member key v with
    | Some (Json.Arr xs) ->
      List.filter_map (function Json.Str s -> Some s | _ -> None) xs
    | _ -> []
  in
  {
    ok = (match Json.member "ok" v with Some (Json.Bool b) -> b | _ -> false);
    oracles = strings "oracles";
    violations = strings "violations";
  }

let level_of_json v =
  {
    index = int_of_float (get_num "index" v);
    movables = int_of_float (get_num "movables" v);
    hpwl = get_num "hpwl" v;
    overflow = get_num "overflow" v;
    wall_s = get_num "wall_s" v;
  }

let stage_of_json v =
  match v with
  | Json.Obj fields ->
    {
      name = get_str "name" v;
      wall_s = get_num "wall_s" v;
      t_s = get_num "t_s" v;
      hpwl_before = get_num "hpwl_before" v;
      hpwl_after = get_num "hpwl_after" v;
      overflow =
        (match Json.member "overflow" v with Some (Json.Num f) -> Some f | _ -> None);
      vm_hwm_kb = int_of_float (get_num "vm_hwm_kb" v);
      heap_kb = int_of_float (get_num "heap_kb" v);
      levels =
        (match Json.member "levels" v with
        | Some (Json.Arr xs) -> List.map level_of_json xs
        | _ -> []);
      check =
        (match Json.member "check" v with
        | Some (Json.Obj _ as c) -> Some (check_of_json c)
        | _ -> None);
      extra = List.filter (fun (k, _) -> not (List.mem k known_stage_fields)) fields;
    }
  | _ -> raise (Json.Parse_error "stage: expected an object")

let of_json v =
  match v with
  | Json.Obj _ ->
    {
      design = get_str "design" v;
      mode = get_str "mode" v;
      total_s = get_num "total_s" v;
      stages =
        (match Json.member "stages" v with
        | Some (Json.Arr xs) -> List.map stage_of_json xs
        | _ -> []);
    }
  | _ -> raise (Json.Parse_error "trace: expected an object")

let write ~path traces =
  let b = Buffer.create 4096 in
  Buffer.add_string b "[\n";
  List.iteri
    (fun i t ->
      if i > 0 then Buffer.add_string b ",\n";
      Json.add_to_buffer b (to_json t))
    traces;
  Buffer.add_string b "\n]\n";
  let oc = open_out path in
  Fun.protect ~finally:(fun () -> close_out oc) (fun () -> Buffer.output_buffer oc b)
