(* Length-prefixed frame protocol + JSON message codec for dpp_serve. *)

module Json = Dpp_report.Json
module Trace = Dpp_report.Trace
module Config = Dpp_core.Config
module Eco = Dpp_core.Eco

exception Protocol_error of string

let fail fmt = Printf.ksprintf (fun m -> raise (Protocol_error m)) fmt

(* ----- framing ----- *)

let magic = "DPP1"
let default_max_frame = 8 * 1024 * 1024
let max_header = 32

let encode_frame payload = Printf.sprintf "%s %d\n%s" magic (String.length payload) payload

let parse_header line =
  match String.index_opt line ' ' with
  | Some i when String.sub line 0 i = magic -> (
    let lens = String.sub line (i + 1) (String.length line - i - 1) in
    match int_of_string_opt lens with
    | Some len when len >= 0 -> len
    | _ -> fail "bad frame length %S" lens)
  | _ -> fail "bad frame header %S" line

(* Read exactly [n] bytes; a clean EOF at byte 0 returns [None] when
   [eof_ok]; an EOF anywhere else is a truncated frame. *)
let read_exact ?(eof_ok = false) fd buf pos n =
  let got = ref 0 in
  (try
     while !got < n do
       let r = Unix.read fd buf (pos + !got) (n - !got) in
       if r = 0 then raise Exit;
       got := !got + r
     done
   with Exit -> ());
  if !got = n then true
  else if !got = 0 && eof_ok then false
  else fail "truncated frame: wanted %d bytes, got %d" n !got

let read_frame ?(max_len = default_max_frame) fd =
  (* header: "DPP1 <len>\n", read byte-wise up to max_header *)
  let hdr = Buffer.create max_header in
  let one = Bytes.create 1 in
  let rec header first =
    if Buffer.length hdr > max_header then fail "oversized frame header"
    else if not (read_exact ~eof_ok:first fd one 0 1) then None
    else if Bytes.get one 0 = '\n' then Some (Buffer.contents hdr)
    else begin
      Buffer.add_char hdr (Bytes.get one 0);
      header false
    end
  in
  match header true with
  | None -> None
  | Some line ->
    let len = parse_header line in
    if len > max_len then fail "oversized frame: %d bytes (limit %d)" len max_len;
    let buf = Bytes.create len in
    ignore (read_exact fd buf 0 len : bool);
    Some (Bytes.to_string buf)

let write_frame fd payload =
  let s = encode_frame payload in
  let b = Bytes.of_string s in
  let n = Bytes.length b in
  let sent = ref 0 in
  while !sent < n do
    sent := !sent + Unix.write fd b !sent (n - !sent)
  done

(* Pure single-frame decode, for protocol unit tests. *)
let decode_frame ?(max_len = default_max_frame) s =
  match String.index_opt s '\n' with
  | None -> fail "truncated frame: no header terminator"
  | Some nl ->
    if nl > max_header then fail "oversized frame header";
    let len = parse_header (String.sub s 0 nl) in
    if len > max_len then fail "oversized frame: %d bytes (limit %d)" len max_len;
    if String.length s - nl - 1 < len then
      fail "truncated frame: wanted %d bytes, got %d" len (String.length s - nl - 1);
    String.sub s (nl + 1) len, String.length s - nl - 1 - len

(* ----- messages ----- *)

type design_src = Preset of { name : string; seed : int } | Bookshelf of { basename : string }

type job_spec = {
  src : design_src;
  mode : Config.mode;
  check : bool;
  jobs : int;
  gp_rounds : int option;
  gp_inner_iters : int option;
  detail_passes : int option;
  out : string option;
}

let spec ?(mode = Config.Baseline) ?(check = false) ?(jobs = 1) ?gp_rounds ?gp_inner_iters
    ?detail_passes ?out src =
  { src; mode; check; jobs; gp_rounds; gp_inner_iters; detail_passes; out }

type edit_source = Edits of Eco.edit list | Random_edits of { ops : int; seed : int }

type request =
  | Submit of job_spec
  | Eco_submit of { base : job_spec; edits : edit_source; threshold : float option; verify : bool }
  | Ping
  | Shutdown

type eco_summary = { fallback : bool; dirty_fraction : float }

type response =
  | Accepted of { job : int }
  | Rejected of { reason : string }
  | Event of { job : int; stage : Trace.stage }
  | Done of { job : int; hpwl : float; wall_s : float; eco : eco_summary option }
  | Failed of { job : int; reason : string }
  | Pong

(* ----- JSON codec ----- *)

let src_to_json = function
  | Preset { name; seed } ->
    Json.Obj [ "kind", Json.Str "preset"; "name", Json.Str name; "seed", Json.Num (float_of_int seed) ]
  | Bookshelf { basename } -> Json.Obj [ "kind", Json.Str "bookshelf"; "basename", Json.Str basename ]

let get_str key o =
  match Json.member key o with
  | Some (Json.Str s) -> s
  | _ -> fail "missing string field %S" key

let get_int key o =
  match Json.member key o with
  | Some (Json.Num f) -> int_of_float f
  | _ -> fail "missing numeric field %S" key

let get_float key o =
  match Json.member key o with
  | Some (Json.Num f) -> f
  | _ -> fail "missing numeric field %S" key

let opt_int key o = match Json.member key o with Some (Json.Num f) -> Some (int_of_float f) | _ -> None
let opt_bool key ~default o = match Json.member key o with Some (Json.Bool b) -> b | _ -> default

let src_of_json o =
  match get_str "kind" o with
  | "preset" -> Preset { name = get_str "name" o; seed = get_int "seed" o }
  | "bookshelf" -> Bookshelf { basename = get_str "basename" o }
  | k -> fail "unknown design source kind %S" k

let mode_to_string = Config.mode_to_string

let mode_of_string = function
  | "baseline" -> Config.Baseline
  | "structure-aware" | "sa" -> Config.Structure_aware
  | m -> fail "unknown mode %S" m

let opt_field key f = function None -> [] | Some v -> [ key, f v ]

let spec_to_json (s : job_spec) =
  Json.Obj
    ([
       "src", src_to_json s.src;
       "mode", Json.Str (mode_to_string s.mode);
       "check", Json.Bool s.check;
       "jobs", Json.Num (float_of_int s.jobs);
     ]
    @ opt_field "gp_rounds" (fun i -> Json.Num (float_of_int i)) s.gp_rounds
    @ opt_field "gp_inner_iters" (fun i -> Json.Num (float_of_int i)) s.gp_inner_iters
    @ opt_field "detail_passes" (fun i -> Json.Num (float_of_int i)) s.detail_passes
    @ opt_field "out" (fun p -> Json.Str p) s.out)

let spec_of_json o =
  {
    src = (match Json.member "src" o with Some s -> src_of_json s | None -> fail "missing job src");
    mode = mode_of_string (get_str "mode" o);
    check = opt_bool "check" ~default:false o;
    jobs = (match opt_int "jobs" o with Some j -> j | None -> 1);
    gp_rounds = opt_int "gp_rounds" o;
    gp_inner_iters = opt_int "gp_inner_iters" o;
    detail_passes = opt_int "detail_passes" o;
    out = (match Json.member "out" o with Some (Json.Str p) -> Some p | _ -> None);
  }

let request_to_json = function
  | Submit s -> Json.Obj [ "op", Json.Str "submit"; "spec", spec_to_json s ]
  | Eco_submit { base; edits; threshold; verify } ->
    Json.Obj
      ([ "op", Json.Str "eco"; "base", spec_to_json base ]
      @ (match edits with
        | Edits e -> [ "edits", Eco.edits_to_json e ]
        | Random_edits { ops; seed } ->
          [
            ( "random",
              Json.Obj [ "ops", Json.Num (float_of_int ops); "seed", Json.Num (float_of_int seed) ]
            );
          ])
      @ opt_field "threshold" (fun t -> Json.Num t) threshold
      @ if verify then [ "verify", Json.Bool true ] else [])
  | Ping -> Json.Obj [ "op", Json.Str "ping" ]
  | Shutdown -> Json.Obj [ "op", Json.Str "shutdown" ]

let request_of_json o =
  match get_str "op" o with
  | "submit" -> (
    match Json.member "spec" o with
    | Some s -> Submit (spec_of_json s)
    | None -> fail "submit: missing spec")
  | "eco" ->
    let base =
      match Json.member "base" o with Some s -> spec_of_json s | None -> fail "eco: missing base"
    in
    let edits =
      match Json.member "edits" o, Json.member "random" o with
      | Some e, _ -> Edits (Eco.edits_of_json e)
      | None, Some r -> Random_edits { ops = get_int "ops" r; seed = get_int "seed" r }
      | None, None -> fail "eco: missing edits or random"
    in
    let threshold = match Json.member "threshold" o with Some (Json.Num t) -> Some t | _ -> None in
    Eco_submit { base; edits; threshold; verify = opt_bool "verify" ~default:false o }
  | "ping" -> Ping
  | "shutdown" -> Shutdown
  | op -> fail "unknown request op %S" op

let response_to_json = function
  | Accepted { job } -> Json.Obj [ "op", Json.Str "accepted"; "job", Json.Num (float_of_int job) ]
  | Rejected { reason } -> Json.Obj [ "op", Json.Str "rejected"; "reason", Json.Str reason ]
  | Event { job; stage } ->
    Json.Obj
      [ "op", Json.Str "event"; "job", Json.Num (float_of_int job); "stage", Trace.stage_to_json stage ]
  | Done { job; hpwl; wall_s; eco } ->
    Json.Obj
      ([
         "op", Json.Str "done";
         "job", Json.Num (float_of_int job);
         "hpwl", Json.Num hpwl;
         "wall_s", Json.Num wall_s;
       ]
      @ opt_field "eco"
          (fun e ->
            Json.Obj [ "fallback", Json.Bool e.fallback; "dirty_fraction", Json.Num e.dirty_fraction ])
          eco)
  | Failed { job; reason } ->
    Json.Obj [ "op", Json.Str "failed"; "job", Json.Num (float_of_int job); "reason", Json.Str reason ]
  | Pong -> Json.Obj [ "op", Json.Str "pong" ]

let response_of_json o =
  match get_str "op" o with
  | "accepted" -> Accepted { job = get_int "job" o }
  | "rejected" -> Rejected { reason = get_str "reason" o }
  | "event" -> (
    match Json.member "stage" o with
    | Some s -> Event { job = get_int "job" o; stage = Trace.stage_of_json s }
    | None -> fail "event: missing stage")
  | "done" ->
    let eco =
      match Json.member "eco" o with
      | Some e ->
        Some
          {
            fallback = opt_bool "fallback" ~default:false e;
            dirty_fraction = get_float "dirty_fraction" e;
          }
      | None -> None
    in
    Done { job = get_int "job" o; hpwl = get_float "hpwl" o; wall_s = get_float "wall_s" o; eco }
  | "failed" -> Failed { job = get_int "job" o; reason = get_str "reason" o }
  | "pong" -> Pong
  | op -> fail "unknown response op %S" op

(* ----- fd-level message IO ----- *)

let decode_payload of_json payload =
  match Json.parse payload with
  | exception Json.Parse_error m -> fail "malformed payload: %s" m
  | j -> of_json j

let send_request fd r = write_frame fd (Json.encode (request_to_json r))
let send_response fd r = write_frame fd (Json.encode (response_to_json r))

let recv_response ?max_len fd =
  Option.map (decode_payload response_of_json) (read_frame ?max_len fd)
