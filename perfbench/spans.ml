(* In-memory span recorder for the traced benchmark run.

   A span is one call the benchmark made into a layer: its name, the op
   it belongs to, its parent span and its wall-clock interval.  Spans
   are kept in memory while the workload runs and written out once at
   exit, so recording costs a list cons per call.  With recording off,
   [span] is a plain call. *)

type span = { id : int; parent : int; op : int; name : string; t0 : float; t1 : float }

type t = {
  mutable enabled : bool;
  mutable op : int;  (** op id stamped on every span recorded now *)
  mutable next_id : int;
  mutable stack : int list;  (** open spans, innermost first *)
  mutable spans : span list;  (** newest first *)
}

let create () = { enabled = false; op = -1; next_id = 0; stack = []; spans = [] }

let top t = match t.stack with p :: _ -> p | [] -> -1

(* A span whose interval was measured elsewhere (a prepare hook, a
   server stage reported in a streamed event); returns its id so it can
   parent others.  The parent defaults to the innermost open span. *)
let record ?parent t ~name ~t0 ~t1 =
  let id = t.next_id in
  if t.enabled then begin
    let parent = Option.value parent ~default:(top t) in
    t.spans <- { id; parent; op = t.op; name; t0; t1 } :: t.spans;
    t.next_id <- id + 1
  end;
  id

let span t name f =
  if not t.enabled then f ()
  else begin
    let id = t.next_id in
    t.next_id <- id + 1;
    let parent = top t in
    t.stack <- id :: t.stack;
    let t0 = Unix.gettimeofday () in
    Fun.protect
      ~finally:(fun () ->
        t.stack <- List.tl t.stack;
        t.spans <- { id; parent; op = t.op; name; t0; t1 = Unix.gettimeofday () } :: t.spans)
      f
  end

let dur s = s.t1 -. s.t0

(* Per-op total time under [name], one entry per op that recorded it. *)
let per_op t name =
  let tbl = Hashtbl.create 16 in
  List.iter
    (fun s ->
      if s.name = name then
        Hashtbl.replace tbl s.op (dur s +. Option.value ~default:0.0 (Hashtbl.find_opt tbl s.op)))
    t.spans;
  Hashtbl.fold (fun _ v acc -> v :: acc) tbl []

(* Every recorded duration under [name], one entry per call. *)
let per_call t name = List.filter_map (fun s -> if s.name = name then Some (dur s) else None) t.spans

(* Self time: a span's duration minus the part of its interval that its
   child spans cover (children may overlap, e.g. server stages
   reconstructed from streamed events). *)
let self_times t =
  let children = Hashtbl.create 256 in
  List.iter (fun s -> Hashtbl.add children s.parent s) t.spans;
  let covered s =
    let ivs =
      Hashtbl.find_all children s.id
      |> List.map (fun c -> max s.t0 c.t0, min s.t1 c.t1)
      |> List.filter (fun (a, b) -> b > a)
      |> List.sort compare
    in
    let total, _ =
      List.fold_left
        (fun (acc, reach) (a, b) ->
          let a = max a reach in
          if b > a then acc +. (b -. a), b else acc, reach)
        (0.0, neg_infinity) ivs
    in
    total
  in
  let agg = Hashtbl.create 32 in
  List.iter
    (fun s ->
      let n, tot, self = Option.value ~default:(0, 0.0, 0.0) (Hashtbl.find_opt agg s.name) in
      Hashtbl.replace agg s.name (n + 1, tot +. dur s, self +. (dur s -. covered s)))
    t.spans;
  Hashtbl.fold (fun name (n, tot, self) acc -> (name, n, tot, self) :: acc) agg []
  |> List.sort (fun (_, _, _, a) (_, _, _, b) -> compare b a)

let write t ~path ~origin =
  let oc = open_out path in
  output_string oc "[";
  List.iteri
    (fun i s ->
      Printf.fprintf oc "%s\n{\"id\":%d,\"parent\":%d,\"op\":%d,\"name\":%S,\"start_ms\":%.3f,\"dur_ms\":%.3f}"
        (if i = 0 then "" else ",")
        s.id s.parent s.op s.name
        ((s.t0 -. origin) *. 1000.0)
        (dur s *. 1000.0))
    (List.rev t.spans);
  output_string oc "\n]\n";
  close_out oc
